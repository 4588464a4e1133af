(* Flat (nonparameterized) IIF: the expander's output and MILO's input.

   All indices are concrete, all programming structures unrolled, all
   subfunctions inlined. Nets are plain strings like "Q[3]". *)

type fexpr =
  | Fconst of bool
  | Fnet of string
  | Fnot of fexpr
  | Fand of fexpr list
  | For_ of fexpr list
  | Fxor of fexpr * fexpr
  | Fxnor of fexpr * fexpr
  | Fbuf of fexpr
  | Fschmitt of fexpr
  | Fdelay of fexpr * float            (* pure transport delay element *)
  | Ftri of { data : fexpr; enable : fexpr }
  | Fwor of fexpr list

(* Async set/reset action: when [cond] evaluates true the register is
   forced to [value]. Listed in priority order (first match wins). *)
type async = { value : bool; cond : fexpr }

type equation =
  | Comb of { target : string; rhs : fexpr }
  | Ff of {
      target : string;
      data : fexpr;
      rising : bool;          (* true: ~r, false: ~f *)
      clock : fexpr;
      asyncs : async list;
    }
  | Latch of {
      target : string;
      data : fexpr;
      transparent_high : bool; (* true: ~h, false: ~l *)
      gate : fexpr;
    }

type t = {
  fname : string;
  finputs : string list;
  foutputs : string list;
  finternals : string list;
  fequations : equation list;
}

let target_of = function
  | Comb { target; _ } | Ff { target; _ } | Latch { target; _ } -> target

let is_sequential = function
  | Ff _ | Latch _ -> true
  | Comb _ -> false

(* Nets appearing in an expression, left to right, with duplicates. *)
let rec fexpr_nets = function
  | Fconst _ -> []
  | Fnet n -> [ n ]
  | Fnot e | Fbuf e | Fschmitt e | Fdelay (e, _) -> fexpr_nets e
  | Fand es | For_ es | Fwor es -> List.concat_map fexpr_nets es
  | Fxor (a, b) | Fxnor (a, b) -> fexpr_nets a @ fexpr_nets b
  | Ftri { data; enable } -> fexpr_nets data @ fexpr_nets enable

let equation_nets = function
  | Comb { rhs; _ } -> fexpr_nets rhs
  | Ff { data; clock; asyncs; _ } ->
      fexpr_nets data @ fexpr_nets clock
      @ List.concat_map (fun a -> fexpr_nets a.cond) asyncs
  | Latch { data; gate; _ } -> fexpr_nets data @ fexpr_nets gate

let uniq names =
  let seen = Hashtbl.create 16 in
  List.filter
    (fun n ->
      if Hashtbl.mem seen n then false
      else begin Hashtbl.add seen n (); true end)
    names

type problem =
  | Undriven of string       (* output or used net with no equation *)
  | Multiple_driver of string
  | Unknown_net of string    (* referenced but never declared *)

let problem_to_string = function
  | Undriven n -> "undriven net " ^ n
  | Multiple_driver n -> "multiple drivers on net " ^ n
  | Unknown_net n -> "undeclared net " ^ n

(* Structural checks: every output driven, no net driven twice, every
   referenced net declared, inputs not driven. *)
let validate t =
  let driven = Hashtbl.create 32 in
  let problems = ref [] in
  let add p = problems := p :: !problems in
  List.iter
    (fun eq ->
      let tgt = target_of eq in
      if Hashtbl.mem driven tgt then add (Multiple_driver tgt)
      else Hashtbl.add driven tgt ())
    t.fequations;
  let declared = Hashtbl.create 32 in
  List.iter (fun n -> Hashtbl.replace declared n ())
    (t.finputs @ t.foutputs @ t.finternals);
  List.iter
    (fun eq ->
      List.iter
        (fun n ->
          if not (Hashtbl.mem declared n) then add (Unknown_net n))
        (target_of eq :: equation_nets eq))
    t.fequations;
  List.iter
    (fun o -> if not (Hashtbl.mem driven o) then add (Undriven o))
    t.foutputs;
  List.iter
    (fun i -> if Hashtbl.mem driven i then add (Multiple_driver i))
    t.finputs;
  (* Internal nets that are read must be driven. *)
  let used = Hashtbl.create 32 in
  List.iter
    (fun eq -> List.iter (fun n -> Hashtbl.replace used n ()) (equation_nets eq))
    t.fequations;
  List.iter
    (fun n ->
      if Hashtbl.mem used n && not (Hashtbl.mem driven n)
         && not (List.mem n t.finputs)
      then add (Undriven n))
    t.finternals;
  uniq (List.rev !problems)

(* ------------------------------------------------------------------ *)
(* MILO-format printer (Appendix A: XOR printed as !=)                 *)
(* ------------------------------------------------------------------ *)

let rec print_fexpr buf e =
  let atom e =
    match e with
    | Fconst _ | Fnet _ | Fnot (Fnet _) -> print_fexpr buf e
    | _ ->
        Buffer.add_char buf '(';
        print_fexpr buf e;
        Buffer.add_char buf ')'
  in
  let sep_list op es =
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_string buf op;
        atom x)
      es
  in
  match e with
  | Fconst b -> Buffer.add_string buf (if b then "1" else "0")
  | Fnet n -> Buffer.add_string buf n
  | Fnot e ->
      Buffer.add_char buf '!';
      atom e
  | Fand es -> sep_list "*" es
  | For_ es -> sep_list "+" es
  | Fxor (a, b) ->
      atom a;
      Buffer.add_string buf "!=";
      atom b
  | Fxnor (a, b) ->
      atom a;
      Buffer.add_string buf "==";
      atom b
  | Fbuf e ->
      Buffer.add_string buf "~b ";
      atom e
  | Fschmitt e ->
      Buffer.add_string buf "~s ";
      atom e
  | Fdelay (e, d) ->
      atom e;
      Buffer.add_string buf (Printf.sprintf " ~d %g" d)
  | Ftri { data; enable } ->
      atom data;
      Buffer.add_string buf " ~t ";
      atom enable
  | Fwor es -> sep_list " ~w " es

let print_equation buf = function
  | Comb { target; rhs } ->
      Buffer.add_string buf target;
      Buffer.add_char buf '=';
      print_fexpr buf rhs;
      Buffer.add_string buf ";\n"
  | Ff { target; data; rising; clock; asyncs } ->
      Buffer.add_string buf target;
      Buffer.add_string buf "=(";
      print_fexpr buf data;
      Buffer.add_string buf (if rising then ") @(~r " else ") @(~f ");
      print_fexpr buf clock;
      Buffer.add_char buf ')';
      if asyncs <> [] then begin
        Buffer.add_string buf " ~a(";
        List.iteri
          (fun i a ->
            if i > 0 then Buffer.add_char buf ',';
            Buffer.add_string buf (if a.value then "1/(" else "0/(");
            print_fexpr buf a.cond;
            Buffer.add_char buf ')')
          asyncs;
        Buffer.add_char buf ')'
      end;
      Buffer.add_string buf ";\n"
  | Latch { target; data; transparent_high; gate } ->
      Buffer.add_string buf target;
      Buffer.add_string buf "=(";
      print_fexpr buf data;
      Buffer.add_string buf (if transparent_high then ") @(~h " else ") @(~l ");
      print_fexpr buf gate;
      Buffer.add_string buf ");\n"

let to_milo t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "NAME=%s;\n" t.fname);
  Buffer.add_string buf
    (Printf.sprintf "INORDER= %s;\n" (String.concat " " t.finputs));
  Buffer.add_string buf
    (Printf.sprintf "OUTORDER=%s;\n" (String.concat " " t.foutputs));
  List.iter (print_equation buf) t.fequations;
  Buffer.contents buf

(* Content fingerprint for memoization: the MILO text covers name,
   port order and every equation; internals are appended since
   to_milo omits them. *)
let fingerprint t =
  Digest.to_hex
    (Digest.string
       (to_milo t ^ "INTERNAL=" ^ String.concat " " t.finternals ^ ";\n"))
