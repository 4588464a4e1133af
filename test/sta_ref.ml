(* The list-based static timing analysis and sizing that the compiled
   timing graph replaced, frozen as a test oracle. The differential
   tests in test_timing.ml require the graph to reproduce these results
   bit for bit, so this file is a specification: do not change it.
   Report and constraint types are the library's, so results compare
   directly. *)

open Icdb_netlist
open Icdb_logic
open Icdb_timing

let fail fmt = Printf.ksprintf (fun s -> raise (Sta.Timing_error s)) fmt

(* ------------------------------------------------------------------ *)
(* Netlist timing view                                                 *)
(* ------------------------------------------------------------------ *)

type view = {
  nl : Netlist.t;
  cells : (string, Celllib.t) Hashtbl.t;        (* instance -> cell *)
  driver : (string, Netlist.instance) Hashtbl.t;(* net -> driving instance *)
  readers : (string, (Netlist.instance * string) list) Hashtbl.t;
  loads : (string, float) Hashtbl.t;            (* net -> unit-transistor load *)
  port_loads : (string * float) list;
  dmemo : (string, float) Hashtbl.t;            (* instance -> output delay *)
}

let cell_of view (inst : Netlist.instance) =
  match Hashtbl.find_opt view.cells inst.inst_name with
  | Some c -> c
  | None -> fail "no cell for instance %s" inst.inst_name

let make_view ?(port_loads = []) (nl : Netlist.t) =
  let cells = Hashtbl.create 64 in
  List.iter
    (fun (i : Netlist.instance) ->
      match Celllib.find i.cell with
      | Some c -> Hashtbl.replace cells i.inst_name c
      | None -> fail "unknown cell %s" i.cell)
    nl.instances;
  let is_output_pin cell pin = Celllib.is_output_pin cell pin in
  let driver = Hashtbl.create 64 in
  Hashtbl.iter
    (fun net drivers ->
      match drivers with
      | [ (i, _) ] -> Hashtbl.replace driver net i
      | (i, _) :: _ ->
          (* tri-state bus: keep the first driver for timing purposes *)
          Hashtbl.replace driver net i
      | [] -> ())
    (Netlist.drivers nl ~is_output_pin);
  let readers = Netlist.fanouts nl ~is_output_pin in
  let loads = Hashtbl.create 64 in
  let view =
    { nl; cells; driver; readers; loads; port_loads;
      dmemo = Hashtbl.create 64 }
  in
  List.iter
    (fun net ->
      let reader_load =
        match Hashtbl.find_opt readers net with
        | None -> 0.0
        | Some rs ->
            List.fold_left
              (fun acc ((i : Netlist.instance), _pin) ->
                let c = cell_of view i in
                acc +. Celllib.sized_input_load c i.size)
              0.0 rs
      in
      let external_load =
        match List.assoc_opt net port_loads with Some l -> l | None -> 0.0
      in
      Hashtbl.replace loads net (reader_load +. external_load))
    (Netlist.nets nl);
  view

let net_load view net =
  match Hashtbl.find_opt view.loads net with Some l -> l | None -> 0.0

let net_fanout view net =
  match Hashtbl.find_opt view.readers net with
  | Some rs -> List.length rs
  | None -> if List.mem net view.nl.Netlist.outputs then 1 else 0

(* Delay through [inst] driving its output net. Memoized per view:
   analyze runs longest_paths once per clock phase plus once per FF
   and per input, and every run recomputes the same cell delays. The
   view's nets and sizes are fixed, so the delay is a pure function of
   the instance. *)
let instance_delay view (inst : Netlist.instance) =
  match Hashtbl.find_opt view.dmemo inst.Netlist.inst_name with
  | Some d -> d
  | None ->
      let cell = cell_of view inst in
      let out_net = Netlist.pin_net_exn inst cell.Celllib.output in
      let d =
        Celllib.delay cell ~size:inst.size ~load:(net_load view out_net)
          ~fanout:(net_fanout view out_net)
      in
      Hashtbl.replace view.dmemo inst.Netlist.inst_name d;
      d

let is_sequential_cell (c : Celllib.t) =
  match c.Celllib.kind with
  | Celllib.Ff _ -> true
  | Celllib.Comb | Celllib.Latch_cell _ | Celllib.Tri_cell -> false

(* ------------------------------------------------------------------ *)
(* Longest paths                                                       *)
(* ------------------------------------------------------------------ *)

(* Longest arrival time per net given per-net source times. Nets with
   no source on any path have no arrival (None). FF outputs are never
   traversed through: they are sources or dead ends. Latches pass
   through (gated clocks). *)
let longest_paths view ~(source : string -> float option) =
  let memo : (string, float option) Hashtbl.t = Hashtbl.create 128 in
  let on_stack = Hashtbl.create 16 in
  let rec arrival net =
    match Hashtbl.find_opt memo net with
    | Some a -> a
    | None ->
        if Hashtbl.mem on_stack net then
          fail "timing loop through net %s" net;
        Hashtbl.replace on_stack net ();
        let a =
          match source net with
          | Some t -> Some t
          | None -> (
              match Hashtbl.find_opt view.driver net with
              | None -> None
              | Some inst ->
                  let cell = cell_of view inst in
                  if is_sequential_cell cell then None
                  else
                    let input_arrivals =
                      List.filter_map
                        (fun (pin, n) ->
                          if pin = cell.Celllib.output then None else arrival n)
                        inst.Netlist.conns
                    in
                    (match input_arrivals with
                     | [] ->
                         (* tie cells: constant from time 0 *)
                         if cell.Celllib.inputs = [] then Some 0.0 else None
                     | ts ->
                         Some
                           (List.fold_left max neg_infinity ts
                           +. instance_delay view inst)))
        in
        Hashtbl.remove on_stack net;
        Hashtbl.replace memo net a;
        a
  in
  arrival

(* FF instances with their output net and pins of interest. *)
let ff_instances view =
  List.filter_map
    (fun (i : Netlist.instance) ->
      let c = cell_of view i in
      if is_sequential_cell c then Some (i, c) else None)
    view.nl.Netlist.instances

(* clk->Q delay of a flip-flop under its output load. *)
let ff_clk_to_q view (inst : Netlist.instance) =
  instance_delay view inst

(* ------------------------------------------------------------------ *)
(* The report                                                          *)
(* ------------------------------------------------------------------ *)

let data_pins (c : Celllib.t) =
  match c.Celllib.kind with
  | Celllib.Ff { has_set; has_reset } ->
      [ "D" ]
      @ (if has_set then [ "S" ] else [])
      @ if has_reset then [ "R" ] else []
  | Celllib.Comb | Celllib.Latch_cell _ | Celllib.Tri_cell -> []

let analyze ?(port_loads = []) (nl : Netlist.t) =
  let view = make_view ~port_loads nl in
  let ffs = ff_instances view in
  (* arrivals from primary inputs at t=0 *)
  let from_inputs =
    longest_paths view ~source:(fun n ->
        if List.mem n nl.Netlist.inputs then Some 0.0 else None)
  in
  (* Launch time of each FF output: clock-network arrival at its CK pin
     plus clk->Q. Rippled clocks (a register clocked by another
     register's output, as in the ripple counter) converge by
     iteration: each round propagates one more stage of the chain. *)
  let ff_out_time = Hashtbl.create 16 in
  List.iter
    (fun ((i : Netlist.instance), c) ->
      let q = Netlist.pin_net_exn i c.Celllib.output in
      Hashtbl.replace ff_out_time q (ff_clk_to_q view i))
    ffs;
  for _round = 1 to List.length ffs do
    let arrivals =
      longest_paths view ~source:(fun n ->
          if List.mem n nl.Netlist.inputs then Some 0.0
          else Hashtbl.find_opt ff_out_time n)
    in
    List.iter
      (fun ((i : Netlist.instance), c) ->
        let q = Netlist.pin_net_exn i c.Celllib.output in
        let ck = Netlist.pin_net_exn i "CK" in
        let clock_arrival = match arrivals ck with Some t -> t | None -> 0.0 in
        Hashtbl.replace ff_out_time q (clock_arrival +. ff_clk_to_q view i))
      ffs
  done;
  let from_ffs =
    longest_paths view ~source:(fun n -> Hashtbl.find_opt ff_out_time n)
  in
  (* WD per output: worst arrival from a register (clock edge), falling
     back to input-sourced paths for purely combinational outputs. *)
  let output_delays =
    List.map
      (fun o ->
        let wd =
          match from_ffs o, from_inputs o with
          | Some a, _ when ffs <> [] -> a
          | _, Some b -> b
          | Some a, None -> a
          | None, None -> 0.0
        in
        (o, wd))
      nl.Netlist.outputs
  in
  (* SD per input: worst path from the input to any register data-ish
     pin, plus that register's setup. *)
  let setup_times =
    List.map
      (fun inp ->
        let from_this =
          longest_paths view ~source:(fun n ->
              if n = inp then Some 0.0 else None)
        in
        let sd =
          List.fold_left
            (fun acc ((i : Netlist.instance), c) ->
              List.fold_left
                (fun acc pin ->
                  match Netlist.pin_net i pin with
                  | None -> acc
                  | Some n -> (
                      match from_this n with
                      | Some t -> Float.max acc (t +. c.Celllib.setup)
                      | None -> acc))
                acc (data_pins c))
            0.0 ffs
        in
        (inp, sd))
      nl.Netlist.inputs
  in
  (* CW: worst register-to-register path + setup, but at least the
     worst input-to-register setup (external data must also make it in
     one phase) and the widest clk->Q. *)
  let reg_to_reg =
    List.fold_left
      (fun acc ((i : Netlist.instance), c) ->
        List.fold_left
          (fun acc pin ->
            match Netlist.pin_net i pin with
            | None -> acc
            | Some n -> (
                match from_ffs n with
                | Some t -> Float.max acc (t +. c.Celllib.setup)
                | None -> acc))
          acc (data_pins c))
      0.0 ffs
  in
  let worst_clk_to_q =
    List.fold_left
      (fun acc (i, _) -> Float.max acc (ff_clk_to_q view i))
      0.0 ffs
  in
  let worst_sd = List.fold_left (fun acc (_, t) -> Float.max acc t) 0.0 setup_times in
  let clock_width = Float.max reg_to_reg (Float.max worst_clk_to_q worst_sd) in
  { Sta.clock_width; output_delays; setup_times }

(* ------------------------------------------------------------------ *)
(* Critical path extraction (for TILOS-style sizing)                   *)
(* ------------------------------------------------------------------ *)

(* Instance names on the worst timing path: the sizer restricts its
   upsizing candidates to these instead of trying the whole netlist. *)
let critical_instances ?(port_loads = []) (nl : Netlist.t) =
  let view = make_view ~port_loads nl in
  let ffs = ff_instances view in
  let ff_out_time = Hashtbl.create 16 in
  List.iter
    (fun ((i : Netlist.instance), c) ->
      let q = Netlist.pin_net_exn i c.Celllib.output in
      Hashtbl.replace ff_out_time q (ff_clk_to_q view i))
    ffs;
  for _round = 1 to List.length ffs do
    let arrivals =
      longest_paths view ~source:(fun n ->
          if List.mem n nl.Netlist.inputs then Some 0.0
          else Hashtbl.find_opt ff_out_time n)
    in
    List.iter
      (fun ((i : Netlist.instance), c) ->
        let q = Netlist.pin_net_exn i c.Celllib.output in
        let ck = Netlist.pin_net_exn i "CK" in
        let clock_arrival = match arrivals ck with Some t -> t | None -> 0.0 in
        Hashtbl.replace ff_out_time q (clock_arrival +. ff_clk_to_q view i))
      ffs
  done;
  let arrival =
    longest_paths view ~source:(fun n ->
        if List.mem n nl.Netlist.inputs then Some 0.0
        else Hashtbl.find_opt ff_out_time n)
  in
  let arr n = match arrival n with Some t -> t | None -> neg_infinity in
  (* endpoints: primary outputs and register data-ish pins *)
  let endpoints =
    List.map (fun o -> (o, arr o)) nl.Netlist.outputs
    @ List.concat_map
        (fun ((i : Netlist.instance), c) ->
          List.filter_map
            (fun pin ->
              Option.map (fun n -> (n, arr n +. c.Celllib.setup))
                (Netlist.pin_net i pin))
            (data_pins c))
        ffs
  in
  let worst =
    List.fold_left
      (fun acc (n, t) ->
        match acc with
        | Some (_, bt) when bt >= t -> acc
        | _ -> if t > neg_infinity then Some (n, t) else acc)
      None endpoints
  in
  match worst with
  | None -> []
  | Some (endpoint, _) ->
      (* walk backwards through the worst-arrival fanins *)
      let rec walk net acc guard =
        if guard > 10000 then acc
        else
          match Hashtbl.find_opt view.driver net with
          | None -> acc
          | Some inst ->
              let cell = cell_of view inst in
              let acc = inst.Netlist.inst_name :: acc in
              if is_sequential_cell cell then acc
              else
                let worst_input =
                  List.fold_left
                    (fun best (pin, n) ->
                      if pin = cell.Celllib.output then best
                      else
                        match best with
                        | Some (_, bt) when bt >= arr n -> best
                        | _ -> if arr n > neg_infinity then Some (n, arr n) else best)
                    None inst.Netlist.conns
                in
                (match worst_input with
                 | Some (n, _) -> walk n acc (guard + 1)
                 | None -> acc)
      in
      List.sort_uniq String.compare (walk endpoint [] 0)

(* Total sized cell area of a netlist, in µm² (cell widths × the fixed
   strip height); the pre-layout area figure sizing optimizes against. *)
let cell_area (nl : Netlist.t) =
  List.fold_left
    (fun acc (i : Netlist.instance) ->
      match Celllib.find i.cell with
      | Some c -> acc +. (Celllib.sized_width c i.size *. Celllib.cell_height)
      | None -> acc)
    0.0 nl.Netlist.instances

(* ------------------------------------------------------------------ *)
(* Sizing                                                              *)
(* ------------------------------------------------------------------ *)

let max_size = 8.0
let size_step = 1.3
let max_iterations = 400

(* Worst violation in ns; <= 0 when all constraints are met. *)
let violation (r : Sta.report) (c : Sizing.constraints) =
  let v = ref neg_infinity in
  (match c.Sizing.clock_width with
   | Some bound -> v := Float.max !v (r.Sta.clock_width -. bound)
   | None -> ());
  List.iter
    (fun (port, bound) ->
      if port = "*" then
        (* the CQL "comb_delay:<n>" form: bound every output *)
        List.iter
          (fun (_, wd) -> v := Float.max !v (wd -. bound))
          r.Sta.output_delays
      else
        match List.assoc_opt port r.Sta.output_delays with
        | Some wd -> v := Float.max !v (wd -. bound)
        | None -> ())
    c.Sizing.comb_delays;
  (match c.Sizing.setup_bound with
   | Some bound ->
       List.iter
         (fun (_, sd) -> v := Float.max !v (sd -. bound))
         r.Sta.setup_times
   | None -> ());
  if !v = neg_infinity then 0.0 else !v

(* A figure of merit to minimize for the strategies. *)
let merit (r : Sta.report) nl = function
  | Sizing.Fastest ->
      r.Sta.clock_width
      +. List.fold_left (fun acc (_, wd) -> Float.max acc wd) 0.0
           r.Sta.output_delays
  | Sizing.Cheapest | Sizing.Balanced -> cell_area nl

let resize nl inst_name factor =
  { nl with
    Netlist.instances =
      List.map
        (fun (i : Netlist.instance) ->
          if i.inst_name = inst_name then
            { i with size = Float.min max_size (i.size *. factor) }
          else i)
        nl.Netlist.instances }

(* Candidate instances: the TILOS move — only gates on the current
   critical path are worth upsizing; trying each of those and keeping
   the best violation-improvement per added area is cheap because the
   path is short compared to the netlist. *)
let best_upsize nl c current_violation =
  let base_area = cell_area nl in
  let try_candidates candidates =
    List.fold_left
      (fun best (i : Netlist.instance) ->
        if i.size >= max_size then best
        else
          let nl' = resize nl i.inst_name size_step in
          let r' = analyze ~port_loads:c.Sizing.port_loads nl' in
          let v' = violation r' c in
          let gain = current_violation -. v' in
          if gain <= 1e-9 then best
          else
            let cost = Float.max 1.0 (cell_area nl' -. base_area) in
            let score = gain /. cost in
            match best with
            | Some (_, _, best_score) when best_score >= score -> best
            | _ -> Some (i.inst_name, nl', score))
      None candidates
  in
  let on_path = critical_instances ~port_loads:c.Sizing.port_loads nl in
  let path_candidates =
    List.filter (fun (i : Netlist.instance) -> List.mem i.inst_name on_path)
      nl.Netlist.instances
  in
  (* the violated constraint may not lie on the globally-worst path
     (e.g. a clock-width bound while an untimed output is slower);
     fall back to the full netlist when the path offers no gain *)
  match try_candidates path_candidates with
  | Some r -> Some r
  | None -> try_candidates nl.Netlist.instances

(* Meet the constraints by greedy upsizing. Returns the sized netlist
   (best effort: if constraints are unreachable the largest-improvement
   netlist found is returned along with the final report). *)
let size_to_constraints (nl : Netlist.t) (c : Sizing.constraints) =
  match c.Sizing.strategy with
  | Sizing.Cheapest -> nl  (* minimum area: leave everything at size 1 *)
  | Sizing.Fastest ->
      (* upsize gates on the critical path while the merit (delay)
         keeps dropping measurably *)
      let rec loop nl iters =
        if iters >= max_iterations then nl
        else
          let r = analyze ~port_loads:c.Sizing.port_loads nl in
          let m = merit r nl Sizing.Fastest in
          let on_path = critical_instances ~port_loads:c.Sizing.port_loads nl in
          let candidates =
            List.filter
              (fun (i : Netlist.instance) -> List.mem i.inst_name on_path)
              nl.Netlist.instances
          in
          let candidates =
            if candidates = [] then nl.Netlist.instances else candidates
          in
          let candidate =
            List.fold_left
              (fun best (i : Netlist.instance) ->
                if i.size >= max_size then best
                else
                  let nl' = resize nl i.inst_name size_step in
                  let r' = analyze ~port_loads:c.Sizing.port_loads nl' in
                  let m' = merit r' nl' Sizing.Fastest in
                  match best with
                  | Some (_, bm) when bm <= m' -> best
                  | _ -> if m' < m -. 1e-6 then Some (nl', m') else best)
              None candidates
          in
          match candidate with
          | Some (nl', _) -> loop nl' (iters + 1)
          | None -> nl
      in
      loop nl 0
  | Sizing.Balanced ->
      let rec loop nl iters =
        let r = analyze ~port_loads:c.Sizing.port_loads nl in
        let v = violation r c in
        if v <= 0.0 || iters >= max_iterations then nl
        else
          match best_upsize nl c v with
          | Some (_, nl', _) -> loop nl' (iters + 1)
          | None -> nl
      in
      loop nl 0

let meets_constraints nl c =
  let r = analyze ~port_loads:c.Sizing.port_loads nl in
  violation r c <= 0.0
