(* Static timing analysis over cell netlists.

   Implements the paper's delay estimator (§4.4.1): each cell carries
   X (delay per unit transistor load), Y (intrinsic) and Z (per fanout);
   the delay of an output is Trans_no*X + Y + fanout_no*Z and a path is
   the sum of its cells' delays. Produces the CW / WD / SD report of
   §3.3: minimum clock width, worst delay from clock to each output, and
   setup time for each input.

   All analysis runs on a compiled timing graph: the netlist's instances
   and nets interned once into arrays, with a mutable size per instance
   so the sizer can try an upsize in place and re-time without
   rebuilding anything. *)

open Icdb_netlist
open Icdb_logic

exception Timing_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Timing_error s)) fmt

type report = {
  clock_width : float;                 (* CW: minimum clock width, ns *)
  output_delays : (string * float) list;  (* WD per output port *)
  setup_times : (string * float) list;    (* SD per input port *)
}

let is_sequential_cell (c : Celllib.t) =
  match c.Celllib.kind with
  | Celllib.Ff _ -> true
  | Celllib.Comb | Celllib.Latch_cell _ | Celllib.Tri_cell -> false

let data_pins (c : Celllib.t) =
  match c.Celllib.kind with
  | Celllib.Ff { has_set; has_reset } ->
      [ "D" ]
      @ (if has_set then [ "S" ] else [])
      @ if has_reset then [ "R" ] else []
  | Celllib.Comb | Celllib.Latch_cell _ | Celllib.Tri_cell -> []

module Graph = struct
  (* Which nets are arrival-time sources in one longest-path pass. *)
  type source =
    | Inputs          (* primary inputs at t=0 *)
    | Inputs_and_ffs  (* primary inputs, else register launch times *)
    | Ffs             (* register launch times only *)
    | One_net         (* [src_net] alone at t=0 *)

  (* One longest-path pass: a per-net memo over preallocated buffers.
     [arr] holds the arrival, NaN meaning "no arrival"; [state] marks
     each net unvisited, on the recursion stack, or done. *)
  type pass = {
    arr : float array;
    state : Bytes.t;
    mutable source : source;
    mutable src_net : int;
  }

  type t = {
    nl : Netlist.t;
    names : string array;          (* instance -> name *)
    cells : Celllib.t array;       (* instance -> cell *)
    size : float array;            (* instance -> drive multiplier *)
    area : float array;            (* instance -> sized area, µm² *)
    delay : float array;           (* instance -> output delay; NaN = stale *)
    out_net : int array;           (* instance -> output net; -1 = unconnected *)
    fanins : int array array;      (* instance -> nets on its input pins,
                                      in connection order *)
    net_names : string array;
    driver : int array;            (* net -> timing driver; -1 = none *)
    readers : int array array;     (* net -> reading instances, fold order *)
    drives : int array array;      (* net -> instances whose delay reads
                                      its load *)
    ext_load : float array;        (* net -> external port load *)
    load : float array;            (* net -> unit-transistor load *)
    fanout : int array;            (* net -> fanout count *)
    is_input : Bytes.t;            (* net -> primary input? *)
    inputs : int array;            (* nl.inputs, in order *)
    outputs : int array;           (* nl.outputs, in order *)
    ffs : int array;               (* flip-flop instances, in order *)
    ff_ck : int array;             (* per flip-flop: CK net, -1 = none *)
    ff_data : int array array;     (* per flip-flop: connected data pins *)
    ff_out : float array;          (* net -> register launch time; NaN = none *)
    from_inputs : pass;
    from_ffs : pass;
    scratch : pass;
  }

  let no_pin g i pin =
    invalid_arg
      (Printf.sprintf "instance %s (%s) has no pin %s" g.names.(i)
         g.cells.(i).Celllib.cname pin)

  let new_pass nnets =
    { arr = Array.make nnets Float.nan;
      state = Bytes.make nnets '\000';
      source = Inputs;
      src_net = -1 }

  (* The load on a net: its readers' input loads summed from scratch in
     one fixed order, plus the external port load. Never patched
     incrementally, so a value depends only on the current sizes. *)
  let refresh_load g n =
    let rs = g.readers.(n) in
    let acc = ref 0.0 in
    for k = 0 to Array.length rs - 1 do
      let r = rs.(k) in
      acc := !acc +. Celllib.sized_input_load g.cells.(r) g.size.(r)
    done;
    g.load.(n) <- !acc +. g.ext_load.(n)

  let instance_area (c : Celllib.t) size =
    Celllib.sized_width c size *. Celllib.cell_height

  let compile ?(port_loads = []) (nl : Netlist.t) =
    let insts = Array.of_list nl.Netlist.instances in
    let n = Array.length insts in
    let seen = Hashtbl.create n in
    let cells =
      Array.map
        (fun (i : Netlist.instance) ->
          match Celllib.find i.cell with
          | None -> fail "unknown cell %s" i.cell
          | Some c ->
              if Hashtbl.mem seen i.inst_name then
                fail "duplicate instance name %s" i.inst_name;
              Hashtbl.add seen i.inst_name ();
              c)
        insts
    in
    let net_names = Array.of_list (Netlist.nets nl) in
    let nnets = Array.length net_names in
    let index = Hashtbl.create nnets in
    Array.iteri (fun k name -> Hashtbl.replace index name k) net_names;
    let net name = Hashtbl.find index name in
    let opt_net = function Some name -> net name | None -> -1 in
    let driver = Array.make nnets (-1) in
    let readers = Array.make nnets [] in
    let drives = Array.make nnets [] in
    let fanins =
      Array.mapi
        (fun k (i : Netlist.instance) ->
          let output = cells.(k).Celllib.output in
          List.filter_map
            (fun (pin, name) ->
              let m = net name in
              if pin = output then begin
                (* the last driver of a tri-state bus times it *)
                driver.(m) <- k;
                None
              end
              else begin
                (* prepended: a load sums its readers last connection
                   first, the order every report's bits depend on *)
                readers.(m) <- k :: readers.(m);
                Some m
              end)
            i.conns
          |> Array.of_list)
        insts
    in
    let out_net =
      Array.mapi
        (fun k (i : Netlist.instance) ->
          let o = opt_net (Netlist.pin_net i cells.(k).Celllib.output) in
          if o >= 0 then drives.(o) <- k :: drives.(o);
          o)
        insts
    in
    let ext_load = Array.make nnets 0.0 in
    (* the first entry for a port wins *)
    List.iter
      (fun (port, l) ->
        match Hashtbl.find_opt index port with
        | Some m -> ext_load.(m) <- l
        | None -> ())
      (List.rev port_loads);
    (* NaN means "no arrival" in the passes, so no load may make a
       delay NaN *)
    Array.iteri
      (fun m l ->
        if not (Float.is_finite l) then
          fail "port load %g on %s is not finite" l net_names.(m))
      ext_load;
    let is_input = Bytes.make nnets '\000' in
    List.iter (fun i -> Bytes.set is_input (net i) '\001') nl.Netlist.inputs;
    let readers = Array.map Array.of_list readers in
    let outputs = Array.of_list (List.map net nl.Netlist.outputs) in
    let fanout =
      Array.mapi
        (fun m rs ->
          match Array.length rs with
          | 0 -> if List.mem net_names.(m) nl.Netlist.outputs then 1 else 0
          | k -> k)
        readers
    in
    let ffs =
      Array.of_list
        (List.filter (fun k -> is_sequential_cell cells.(k)) (List.init n Fun.id))
    in
    let size = Array.map (fun (i : Netlist.instance) -> i.size) insts in
    let g =
      { nl;
        names = Array.map (fun (i : Netlist.instance) -> i.inst_name) insts;
        cells;
        size;
        area = Array.mapi (fun k c -> instance_area c size.(k)) cells;
        delay = Array.make n Float.nan;
        out_net;
        fanins;
        net_names;
        driver;
        readers;
        drives = Array.map Array.of_list drives;
        ext_load;
        load = Array.make nnets 0.0;
        fanout;
        is_input;
        inputs = Array.of_list (List.map net nl.Netlist.inputs);
        outputs;
        ffs;
        ff_ck = Array.map (fun k -> opt_net (Netlist.pin_net insts.(k) "CK")) ffs;
        ff_data =
          Array.map
            (fun k ->
              List.filter_map (Netlist.pin_net insts.(k)) (data_pins cells.(k))
              |> List.map net |> Array.of_list)
            ffs;
        ff_out = Array.make nnets Float.nan;
        from_inputs = new_pass nnets;
        from_ffs = new_pass nnets;
        scratch = new_pass nnets }
    in
    for m = 0 to nnets - 1 do refresh_load g m done;
    g

  let instance_count g = Array.length g.size
  let size g i = g.size.(i)

  let set_size g i s =
    g.size.(i) <- s;
    g.area.(i) <- instance_area g.cells.(i) s;
    g.delay.(i) <- Float.nan;
    let ins = g.fanins.(i) in
    for k = 0 to Array.length ins - 1 do
      let m = ins.(k) in
      refresh_load g m;
      let ds = g.drives.(m) in
      for j = 0 to Array.length ds - 1 do
        g.delay.(ds.(j)) <- Float.nan
      done
    done

  (* The hot paths below return through the preallocated buffers rather
     than as results, so that no float is boxed per net or per
     instance: a sizing run analyzes the graph hundreds of times. *)

  (* Delay through instance [i] driving its output net, memoized in
     [g.delay] until a resize changes its size or its output load. *)
  let ensure_delay g i =
    if Float.is_nan g.delay.(i) then begin
      let o = g.out_net.(i) in
      if o < 0 then no_pin g i g.cells.(i).Celllib.output;
      g.delay.(i) <-
        Celllib.delay g.cells.(i) ~size:g.size.(i) ~load:g.load.(o)
          ~fanout:g.fanout.(o)
    end

  let start p source src_net =
    Bytes.fill p.state 0 (Bytes.length p.state) '\000';
    p.source <- source;
    p.src_net <- src_net

  let[@inline] source_time g p m =
    match p.source with
    | Inputs -> if Bytes.get g.is_input m <> '\000' then 0.0 else Float.nan
    | Inputs_and_ffs ->
        if Bytes.get g.is_input m <> '\000' then 0.0 else g.ff_out.(m)
    | Ffs -> g.ff_out.(m)
    | One_net -> if m = p.src_net then 0.0 else Float.nan

  (* Compute the longest arrival time at net [m] into [p.arr], on
     demand. Nets with no source on any path have no arrival (NaN). FF
     outputs are never traversed through: they are sources or dead
     ends. Latches pass through (gated clocks). A combinational driver
     adds its delay to its latest input arrival; a tie cell (no inputs)
     is a constant from time 0. *)
  let rec visit g p m =
    match Bytes.get p.state m with
    | '\002' -> ()
    | '\001' -> fail "timing loop through net %s" g.net_names.(m)
    | _ ->
        Bytes.set p.state m '\001';
        let s = source_time g p m in
        p.arr.(m) <- s;
        let d = g.driver.(m) in
        if Float.is_nan s && d >= 0 && not (is_sequential_cell g.cells.(d))
        then begin
          let ins = g.fanins.(d) in
          let worst = ref Float.neg_infinity and any = ref false in
          for k = 0 to Array.length ins - 1 do
            let n = ins.(k) in
            visit g p n;
            let t = p.arr.(n) in
            if not (Float.is_nan t) then begin
              any := true;
              if not (!worst >= t) then worst := t
            end
          done;
          if !any then begin
            ensure_delay g d;
            p.arr.(m) <- !worst +. g.delay.(d)
          end
          else if g.cells.(d).Celllib.inputs = [] then p.arr.(m) <- 0.0
        end;
        Bytes.set p.state m '\002'

  (* Launch time of each FF output: clock-network arrival at its CK pin
     plus clk->Q. Rippled clocks (a register clocked by another
     register's output, as in the ripple counter) converge by
     iteration: each round propagates one more stage of the chain. A
     round's pass reads launch times as they are updated within it. *)
  let settle_ffs g =
    Array.fill g.ff_out 0 (Array.length g.ff_out) Float.nan;
    let ffs = g.ffs in
    for k = 0 to Array.length ffs - 1 do
      let i = ffs.(k) in
      let q = g.out_net.(i) in
      if q < 0 then no_pin g i g.cells.(i).Celllib.output;
      ensure_delay g i;
      g.ff_out.(q) <- g.delay.(i)
    done;
    let p = g.scratch in
    for _round = 1 to Array.length ffs do
      start p Inputs_and_ffs (-1);
      for k = 0 to Array.length ffs - 1 do
        let i = ffs.(k) in
        let ck = g.ff_ck.(k) in
        if ck < 0 then no_pin g i "CK";
        visit g p ck;
        let a = p.arr.(ck) in
        let clock_arrival = if Float.is_nan a then 0.0 else a in
        g.ff_out.(g.out_net.(i)) <- clock_arrival +. g.delay.(i)
      done
    done

  (* Worst [arrival + setup] over the flip-flops' data pins in pass
     [p], at least 0. *)
  let worst_data_arrival g p =
    let acc = ref 0.0 in
    for k = 0 to Array.length g.ffs - 1 do
      let setup = g.cells.(g.ffs.(k)).Celllib.setup in
      let data = g.ff_data.(k) in
      for j = 0 to Array.length data - 1 do
        let m = data.(j) in
        visit g p m;
        let t = p.arr.(m) in
        if not (Float.is_nan t) then acc := Float.max !acc (t +. setup)
      done
    done;
    !acc

  let analyze g =
    let pi = g.from_inputs and pf = g.from_ffs in
    start pi Inputs (-1);
    settle_ffs g;
    start pf Ffs (-1);
    let has_ffs = Array.length g.ffs > 0 in
    (* WD per output: worst arrival from a register (clock edge),
       falling back to input-sourced paths for purely combinational
       outputs. *)
    let output_delays =
      List.mapi
        (fun k o ->
          let m = g.outputs.(k) in
          visit g pf m;
          visit g pi m;
          let a = pf.arr.(m) and b = pi.arr.(m) in
          let wd =
            if not (Float.is_nan a) && has_ffs then a
            else if not (Float.is_nan b) then b
            else if not (Float.is_nan a) then a
            else 0.0
          in
          (o, wd))
        g.nl.Netlist.outputs
    in
    (* SD per input: worst path from the input to any register
       data-ish pin, plus that register's setup. *)
    let setup_times =
      List.mapi
        (fun k inp ->
          start g.scratch One_net g.inputs.(k);
          (inp, worst_data_arrival g g.scratch))
        g.nl.Netlist.inputs
    in
    (* CW: worst register-to-register path + setup, but at least the
       worst input-to-register setup (external data must also make it
       in one phase) and the widest clk->Q. *)
    let reg_to_reg = worst_data_arrival g pf in
    let worst_clk_to_q = ref 0.0 in
    for k = 0 to Array.length g.ffs - 1 do
      worst_clk_to_q := Float.max !worst_clk_to_q g.delay.(g.ffs.(k))
    done;
    let worst_sd =
      List.fold_left (fun acc (_, t) -> Float.max acc t) 0.0 setup_times
    in
    let clock_width =
      Float.max reg_to_reg (Float.max !worst_clk_to_q worst_sd)
    in
    { clock_width; output_delays; setup_times }

  (* Instances on the worst timing path: the endpoint (primary output
     or register data-ish pin) with the latest arrival, walked back
     through worst-arrival fanins. Walk order, deepest first. *)
  let critical_path g =
    settle_ffs g;
    let p = g.scratch in
    start p Inputs_and_ffs (-1);
    let[@inline] arr m =
      visit g p m;
      let a = p.arr.(m) in
      if Float.is_nan a then Float.neg_infinity else a
    in
    (* register endpoints are timed before output endpoints, but rank
       after them on ties *)
    Array.iter (Array.iter (visit g p)) g.ff_data;
    let worst_net = ref (-1) and worst_t = ref Float.neg_infinity in
    let[@inline] consider m t =
      if not (!worst_net >= 0 && !worst_t >= t) && t > Float.neg_infinity
      then begin
        worst_net := m;
        worst_t := t
      end
    in
    Array.iter (fun m -> consider m (arr m)) g.outputs;
    Array.iteri
      (fun k i ->
        let setup = g.cells.(i).Celllib.setup in
        Array.iter (fun m -> consider m (arr m +. setup)) g.ff_data.(k))
      g.ffs;
    let rec walk m acc guard =
      let d = if guard > 10000 || m < 0 then -1 else g.driver.(m) in
      if d < 0 then acc
      else
        let acc = d :: acc in
        if is_sequential_cell g.cells.(d) then acc
        else begin
          let ins = g.fanins.(d) in
          let best = ref (-1) and best_t = ref Float.neg_infinity in
          for k = 0 to Array.length ins - 1 do
            let t = arr ins.(k) in
            if not (!best >= 0 && !best_t >= t) && t > Float.neg_infinity
            then begin
              best := ins.(k);
              best_t := t
            end
          done;
          if !best < 0 then acc else walk !best acc (guard + 1)
        end
    in
    walk !worst_net [] 0

  let critical_mask g =
    let mask = Array.make (instance_count g) false in
    List.iter (fun i -> mask.(i) <- true) (critical_path g);
    mask

  let critical_instances g =
    List.sort_uniq String.compare
      (List.map (fun i -> g.names.(i)) (critical_path g))

  let cell_area g =
    let acc = ref 0.0 in
    for i = 0 to Array.length g.area - 1 do
      acc := !acc +. g.area.(i)
    done;
    !acc

  let to_netlist g =
    { g.nl with
      Netlist.instances =
        List.mapi
          (fun k (i : Netlist.instance) ->
            if Float.equal i.size g.size.(k) then i
            else { i with size = g.size.(k) })
          g.nl.Netlist.instances }
end

let analyze ?port_loads (nl : Netlist.t) =
  Icdb_obs.Trace.with_span "sta.analyze" @@ fun () ->
  Graph.analyze (Graph.compile ?port_loads nl)

let critical_instances ?port_loads (nl : Netlist.t) =
  Graph.critical_instances (Graph.compile ?port_loads nl)

let cell_area (nl : Netlist.t) = Graph.cell_area (Graph.compile nl)

(* Render the §3.3 delay listing: CW, then WD per output, then SD per
   input that feeds sequential logic. *)
let report_to_string r =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf "CW %.1f\n" r.clock_width);
  List.iter
    (fun (o, t) -> Buffer.add_string buf (Printf.sprintf "WD %s %.1f\n" o t))
    r.output_delays;
  List.iter
    (fun (i, t) ->
      if t > 0.0 then
        Buffer.add_string buf (Printf.sprintf "SD %s %.1f\n" i t))
    r.setup_times;
  Buffer.contents buf
