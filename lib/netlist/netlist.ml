(* Gate-level netlists: the output of technology mapping and the input
   to sizing, timing analysis, simulation and layout.

   A netlist instantiates cells by name; cell semantics (function,
   delay, geometry) live in the technology library, keeping this module
   dependency-free. *)

type instance = {
  inst_name : string;
  cell : string;                  (* cell-library name, e.g. "NAND2" *)
  size : float;                   (* drive-strength multiplier, >= 1.0 *)
  conns : (string * string) list; (* cell pin -> net *)
}

type t = {
  name : string;
  inputs : string list;
  outputs : string list;
  instances : instance list;
}

let pin_net inst pin =
  match List.assoc_opt pin inst.conns with
  | Some n -> Some n
  | None -> None

let pin_net_exn inst pin =
  match pin_net inst pin with
  | Some n -> n
  | None ->
      invalid_arg
        (Printf.sprintf "instance %s (%s) has no pin %s" inst.inst_name
           inst.cell pin)

(* All nets mentioned anywhere, inputs and outputs first, no dups. *)
let nets t =
  let seen = Hashtbl.create 64 in
  let out = ref [] in
  let add n =
    if not (Hashtbl.mem seen n) then begin
      Hashtbl.add seen n ();
      out := n :: !out
    end
  in
  List.iter add t.inputs;
  List.iter add t.outputs;
  List.iter (fun i -> List.iter (fun (_, n) -> add n) i.conns) t.instances;
  List.rev !out

let instance_count t = List.length t.instances

let cell_histogram t =
  let h = Hashtbl.create 16 in
  List.iter
    (fun i ->
      let c = match Hashtbl.find_opt h i.cell with Some n -> n | None -> 0 in
      Hashtbl.replace h i.cell (c + 1))
    t.instances;
  Hashtbl.fold (fun cell n acc -> (cell, n) :: acc) h []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* Map net -> instances reading it through which pins.
   [driver_pins] tells which pins of a cell are outputs. *)
let fanouts t ~is_output_pin =
  let h = Hashtbl.create 64 in
  List.iter
    (fun i ->
      List.iter
        (fun (pin, net) ->
          if not (is_output_pin i.cell pin) then begin
            let prev =
              match Hashtbl.find_opt h net with Some l -> l | None -> []
            in
            Hashtbl.replace h net ((i, pin) :: prev)
          end)
        i.conns)
    t.instances;
  h

(* Map net -> driving instance/pin. Primary inputs have no driver. *)
let drivers t ~is_output_pin =
  let h = Hashtbl.create 64 in
  List.iter
    (fun i ->
      List.iter
        (fun (pin, net) ->
          if is_output_pin i.cell pin then begin
            let prev =
              match Hashtbl.find_opt h net with Some l -> l | None -> []
            in
            Hashtbl.replace h net ((i, pin) :: prev)
          end)
        i.conns)
    t.instances;
  h
