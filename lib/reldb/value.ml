type t =
  | Int of int
  | Float of float
  | Str of string
  | Bool of bool

type ty = Tint | Tfloat | Tstr | Tbool

let ty_of = function
  | Int _ -> Tint
  | Float _ -> Tfloat
  | Str _ -> Tstr
  | Bool _ -> Tbool

let ty_name = function
  | Tint -> "int"
  | Tfloat -> "float"
  | Tstr -> "string"
  | Tbool -> "bool"

let equal a b =
  match a, b with
  | Int x, Int y -> x = y
  | Float x, Float y -> Float.equal x y
  | Str x, Str y -> String.equal x y
  | Bool x, Bool y -> x = y
  | (Int _ | Float _ | Str _ | Bool _), _ -> false

let rank = function Int _ -> 0 | Float _ -> 1 | Str _ -> 2 | Bool _ -> 3

let compare a b =
  match a, b with
  | Int x, Int y -> Int.compare x y
  | Float x, Float y -> Float.compare x y
  | Str x, Str y -> String.compare x y
  | Bool x, Bool y -> Bool.compare x y
  | _ -> Int.compare (rank a) (rank b)

let to_string = function
  | Int i -> string_of_int i
  | Float f -> Printf.sprintf "%g" f
  | Str s -> s
  | Bool b -> string_of_bool b

let escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let unescape s =
  let buf = Buffer.create (String.length s) in
  let n = String.length s in
  let rec loop i =
    if i >= n then ()
    else if s.[i] = '\\' && i + 1 < n then begin
      (match s.[i + 1] with
       | 'n' -> Buffer.add_char buf '\n'
       | 't' -> Buffer.add_char buf '\t'
       | c -> Buffer.add_char buf c);
      loop (i + 2)
    end
    else begin
      Buffer.add_char buf s.[i];
      loop (i + 1)
    end
  in
  loop 0;
  Buffer.contents buf

let encode = function
  | Int i -> "i:" ^ string_of_int i
  | Float f -> Printf.sprintf "f:%h" f  (* hex float: exact roundtrip *)
  | Str s -> "s:" ^ escape s
  | Bool b -> "b:" ^ string_of_bool b

let decode line =
  if String.length line < 2 || line.[1] <> ':' then
    failwith ("Value.decode: malformed " ^ line)
  else
    let payload = String.sub line 2 (String.length line - 2) in
    match line.[0] with
    | 'i' -> Int (int_of_string payload)
    | 'f' -> Float (float_of_string payload)
    | 's' -> Str (unescape payload)
    | 'b' -> Bool (bool_of_string payload)
    | c -> failwith (Printf.sprintf "Value.decode: unknown tag %c" c)
