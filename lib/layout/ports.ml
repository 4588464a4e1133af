(* Port position assignment (§3.3).

   A request assigns each port a side and a relative position:

     CLK left s1.0
     D[0] top 10
     MINMAX right s2.0

   Ports on a side are sorted by their position number and spread
   uniformly along that side of the bounding box. *)

type side = Left | Right | Top | Bottom

type spec = {
  port : string;
  side : side;
  position : float;  (* relative order key *)
}

type placed_port = {
  pp_name : string;
  pp_side : side;
  pp_x : float;
  pp_y : float;
}

exception Port_error of string

let side_of_string = function
  | "left" -> Left
  | "right" -> Right
  | "top" -> Top
  | "bottom" -> Bottom
  | s -> raise (Port_error ("unknown side " ^ s))

(* Parse one line: <port> <side> <position>, where position may carry
   the paper's "s" prefix (slot notation). *)
let parse_line line =
  match String.split_on_char ' ' (String.trim line)
        |> List.filter (fun s -> s <> "") with
  | [ port; side; pos ] ->
      let pos =
        let pos =
          if String.length pos > 1 && (pos.[0] = 's' || pos.[0] = 'S') then
            String.sub pos 1 (String.length pos - 1)
          else pos
        in
        match float_of_string_opt pos with
        | Some f -> f
        | None -> raise (Port_error ("bad position " ^ pos))
      in
      Some { port; side = side_of_string side; position = pos }
  | [] -> None
  | _ -> raise (Port_error ("malformed port line: " ^ line))

let parse text =
  String.split_on_char '\n' text |> List.filter_map parse_line

(* Spread each side's ports along the box perimeter in position order. *)
let assign specs ~width ~height =
  let on side = List.filter (fun s -> s.side = side) specs in
  let sorted side =
    List.stable_sort (fun a b -> compare a.position b.position) (on side)
  in
  let spread side along place =
    let ports = sorted side in
    let n = List.length ports in
    List.mapi
      (fun i s ->
        let frac = (float_of_int i +. 1.0) /. (float_of_int n +. 1.0) in
        place s (frac *. along))
      ports
  in
  spread Left height (fun s y ->
      { pp_name = s.port; pp_side = Left; pp_x = 0.0; pp_y = y })
  @ spread Right height (fun s y ->
      { pp_name = s.port; pp_side = Right; pp_x = width; pp_y = y })
  @ spread Bottom width (fun s x ->
      { pp_name = s.port; pp_side = Bottom; pp_x = x; pp_y = 0.0 })
  @ spread Top width (fun s x ->
      { pp_name = s.port; pp_side = Top; pp_x = x; pp_y = height })

(* Default assignment when the user gives none: inputs on the left,
   outputs on the right, clock-like ports at the bottom. *)
let default ~inputs ~outputs =
  let looks_like_clock n =
    let u = String.uppercase_ascii n in
    u = "CLK" || u = "CLOCK" || u = "CK"
  in
  List.mapi
    (fun i n ->
      if looks_like_clock n then
        { port = n; side = Bottom; position = 1.0 }
      else { port = n; side = Left; position = float_of_int i })
    inputs
  @ List.mapi
      (fun i n -> { port = n; side = Right; position = float_of_int i })
      outputs
