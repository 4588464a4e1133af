(* Four-valued gate-level simulation (0 / 1 / X / Z).

   The two-valued simulators start every register at zero, which hides
   initialization bugs. This simulator starts state elements at X and
   propagates unknowns pessimistically, so a synthesis tool can ask the
   question that matters before committing a component: after this
   reset sequence, which outputs are still undefined?

   Z only arises from disabled tri-state drivers; at any gate input it
   reads as X. Bus resolution: drivers at Z are ignored, agreeing
   drivers win, conflicts give X. *)

open Icdb_netlist
open Icdb_logic

exception Xsim_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Xsim_error s)) fmt

type v = V0 | V1 | VX | VZ

let of_bool b = if b then V1 else V0

(* Z reads as X through any gate input. *)
let strengthen = function VZ -> VX | v -> v

let v_not v =
  match strengthen v with V0 -> V1 | V1 -> V0 | _ -> VX

let v_and a b =
  match strengthen a, strengthen b with
  | V0, _ | _, V0 -> V0
  | V1, V1 -> V1
  | _ -> VX

let v_or a b =
  match strengthen a, strengthen b with
  | V1, _ | _, V1 -> V1
  | V0, V0 -> V0
  | _ -> VX

let v_xor a b =
  match strengthen a, strengthen b with
  | V0, V0 | V1, V1 -> V0
  | V0, V1 | V1, V0 -> V1
  | _ -> VX

(* Wired resolution of two driver contributions. *)
let resolve a b =
  match a, b with
  | VZ, v | v, VZ -> v
  | V0, V0 -> V0
  | V1, V1 -> V1
  | _ -> VX

(* ------------------------------------------------------------------ *)
(* Compiled form (parallel to Gate_sim)                                *)
(* ------------------------------------------------------------------ *)

type ff_info = {
  inst : string;
  out : string;
  d : string;
  ck : string;
  s : string option;
  r : string option;
}

type compiled =
  | Ccomb of { out : string; cell : Celllib.t; pins : (string * string) list }
  | Cff of ff_info
  | Clatch of { inst : string; out : string; d : string; g : string;
                transparent_high : bool }
  | Ctri_group of { out : string; drivers : (string * string) list }

type t = {
  nl : Netlist.t;
  elements : compiled list;
  values : (string, v) Hashtbl.t;
  prev_clock : (string, v) Hashtbl.t;
  latch_store : (string, v) Hashtbl.t;
}

let compile (nl : Netlist.t) =
  let tri_groups = Hashtbl.create 8 in
  let elements = ref [] in
  List.iter
    (fun (inst : Netlist.instance) ->
      let cell =
        match Celllib.find inst.cell with
        | Some c -> c
        | None -> fail "unknown cell %s" inst.cell
      in
      let pin p = Netlist.pin_net_exn inst p in
      match cell.Celllib.kind with
      | Celllib.Comb ->
          elements :=
            Ccomb { out = pin cell.Celllib.output; cell; pins = inst.conns }
            :: !elements
      | Celllib.Ff { has_set; has_reset } ->
          elements :=
            Cff
              { inst = inst.inst_name;
                out = pin "Q";
                d = pin "D";
                ck = pin "CK";
                s = (if has_set then Some (pin "S") else None);
                r = (if has_reset then Some (pin "R") else None) }
            :: !elements
      | Celllib.Latch_cell { transparent_high } ->
          elements :=
            Clatch
              { inst = inst.inst_name; out = pin "Q"; d = pin "D";
                g = pin "G"; transparent_high }
            :: !elements
      | Celllib.Tri_cell ->
          let out = pin "Y" in
          let prev =
            match Hashtbl.find_opt tri_groups out with Some l -> l | None -> []
          in
          Hashtbl.replace tri_groups out ((pin "A", pin "EN") :: prev))
    nl.Netlist.instances;
  let tris =
    Hashtbl.fold
      (fun out drivers acc ->
        Ctri_group { out; drivers = List.rev drivers } :: acc)
      tri_groups []
  in
  List.rev !elements @ tris

(* Every net (including register outputs) starts at X. *)
let create nl =
  let st =
    { nl;
      elements = compile nl;
      values = Hashtbl.create 128;
      prev_clock = Hashtbl.create 16;
      latch_store = Hashtbl.create 16 }
  in
  List.iter (fun n -> Hashtbl.replace st.values n VX) (Netlist.nets nl);
  st

let value st net =
  if net = "$const1" then V1
  else if net = "$const0" then V0
  else match Hashtbl.find_opt st.values net with Some v -> v | None -> VX

let eval_cell st (cell : Celllib.t) pins =
  let lookup pin =
    match List.assoc_opt pin pins with
    | Some n -> value st n
    | None -> fail "cell %s: pin %s unconnected" cell.Celllib.cname pin
  in
  let rec ev e =
    match e with
    | Icdb_iif.Flat.Fconst b -> of_bool b
    | Icdb_iif.Flat.Fnet p -> lookup p
    | Icdb_iif.Flat.Fnot e -> v_not (ev e)
    | Icdb_iif.Flat.Fand es ->
        List.fold_left (fun acc e -> v_and acc (ev e)) V1 es
    | Icdb_iif.Flat.For_ es ->
        List.fold_left (fun acc e -> v_or acc (ev e)) V0 es
    | Icdb_iif.Flat.Fxor (a, b) -> v_xor (ev a) (ev b)
    | Icdb_iif.Flat.Fxnor (a, b) -> v_not (v_xor (ev a) (ev b))
    | Icdb_iif.Flat.Fbuf e | Icdb_iif.Flat.Fschmitt e -> strengthen (ev e)
    | Icdb_iif.Flat.Fdelay (e, _) -> strengthen (ev e)
    | Icdb_iif.Flat.Ftri _ | Icdb_iif.Flat.Fwor _ ->
        fail "cell %s: interface operator in cell function" cell.Celllib.cname
  in
  match cell.Celllib.logic with
  | Some f -> ev f
  | None -> fail "cell %s has no combinational function" cell.Celllib.cname

let comb_pass st =
  let changed = ref false in
  let update out v =
    if value st out <> v then begin
      Hashtbl.replace st.values out v;
      changed := true
    end
  in
  List.iter
    (fun el ->
      match el with
      | Ccomb { out; cell; pins } -> update out (eval_cell st cell pins)
      | Clatch { inst; out; d; g; transparent_high } ->
          let gv = strengthen (value st g) in
          let active = if transparent_high then V1 else V0 in
          let inactive = if transparent_high then V0 else V1 in
          let v =
            if gv = active then begin
              let dv = strengthen (value st d) in
              Hashtbl.replace st.latch_store inst dv;
              dv
            end
            else if gv = inactive then
              match Hashtbl.find_opt st.latch_store inst with
              | Some held -> held
              | None -> VX
            else VX  (* unknown gate: output unknown *)
          in
          update out v
      | Ctri_group { out; drivers } ->
          let contribution (d, en) =
            match strengthen (value st en) with
            | V1 -> strengthen (value st d)
            | V0 -> VZ
            | _ -> VX
          in
          let v = List.fold_left (fun acc dr -> resolve acc (contribution dr)) VZ drivers in
          update out v
      | Cff _ -> ())
    st.elements;
  !changed

let settle st =
  let limit = List.length st.elements + 8 in
  let rec loop n =
    if comb_pass st then
      if n >= limit then
        (* force unstable feedback to X rather than failing: X is the
           honest answer for an oscillating node *)
        ()
      else loop (n + 1)
  in
  loop 0

let update_registers st =
  let regs =
    List.filter_map
      (fun el -> match el with Cff f -> Some f | _ -> None)
      st.elements
  in
  let rounds = List.length regs + 2 in
  let rec loop n =
    settle st;
    let updates =
      List.map
        (fun f ->
          let clk = strengthen (value st f.ck) in
          let prev_clk =
            match Hashtbl.find_opt st.prev_clock f.inst with
            | Some p -> p
            | None -> clk
          in
          let current = value st f.out in
          let sampled =
            match prev_clk, clk with
            | V0, V1 -> strengthen (value st f.d)   (* clean rising edge *)
            | (V0 | V1), (V0 | V1) -> current       (* no edge *)
            | _ ->
                (* unknown clock: the register may or may not have
                   clocked; only keep the value if old and new agree *)
                let d = strengthen (value st f.d) in
                if d = current then current else VX
          in
          let forced =
            match f.r, f.s with
            | Some r, _ when strengthen (value st r) = V1 -> Some V0
            | _, Some s when strengthen (value st s) = V1 -> Some V1
            | Some r, _ when strengthen (value st r) = VX -> Some VX
            | _, Some s when strengthen (value st s) = VX -> Some VX
            | _ -> None
          in
          let next = match forced with Some v -> v | None -> sampled in
          (f.inst, f.out, clk, next, next <> current))
        regs
    in
    let any_change = List.exists (fun (_, _, _, _, c) -> c) updates in
    List.iter
      (fun (inst, out, clk, next, _) ->
        Hashtbl.replace st.prev_clock inst clk;
        Hashtbl.replace st.values out next)
      updates;
    if any_change && n < rounds then loop (n + 1) else settle st
  in
  loop 0

let step st inputs =
  List.iter
    (fun (n, v) ->
      if not (List.mem n st.nl.Netlist.inputs) then
        fail "Xsim.step: %s is not an input of %s" n st.nl.Netlist.name;
      Hashtbl.replace st.values n v)
    inputs;
  update_registers st

let outputs st = List.map (fun o -> (o, value st o)) st.nl.Netlist.outputs

let undefined_outputs st =
  List.filter_map
    (fun (o, v) -> if v = VX || v = VZ then Some o else None)
    (outputs st)

(* ------------------------------------------------------------------ *)
(* Initialization analysis                                             *)
(* ------------------------------------------------------------------ *)

(* Drive a reset sequence (every step sets the named inputs, all other
   inputs at X) and report the outputs still undefined afterwards: the
   question a synthesis tool asks before trusting a component's
   power-on behaviour. *)
let initialization_check (nl : Netlist.t) ~sequence =
  let st = create nl in
  List.iter
    (fun assignment ->
      let full =
        List.map
          (fun n ->
            match List.assoc_opt n assignment with
            | Some b -> (n, of_bool b)
            | None -> (n, VX))
          nl.Netlist.inputs
      in
      step st full)
    sequence;
  (st, undefined_outputs st)
