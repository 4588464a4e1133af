(* Transistor sizing (the TILOS/Aesop substitute, §4.3 step 4).

   Greedy sensitivity-based sizing on the linear delay model: while a
   timing constraint is violated, walk the critical path and enlarge the
   instance whose upsizing buys the most delay for the least area.
   Constraints follow CQL's request_component keywords: comb_delay
   triples (output, max delay, output load), set-up time bound, clock
   width bound, or a strategy (fastest / cheapest). *)

open Icdb_netlist

type strategy = Fastest | Cheapest | Balanced

type constraints = {
  clock_width : float option;           (* CW upper bound, ns *)
  comb_delays : (string * float) list;  (* output port -> WD bound *)
  setup_bound : float option;           (* max SD over all inputs *)
  port_loads : (string * float) list;   (* output port -> unit-transistor load *)
  strategy : strategy;
}

let default_constraints =
  { clock_width = None;
    comb_delays = [];
    setup_bound = None;
    port_loads = [];
    strategy = Balanced }

let max_size = 8.0
let size_step = 1.3
let max_iterations = 400

(* Worst violation in ns; <= 0 when all constraints are met. *)
let violation (r : Sta.report) c =
  let v = ref neg_infinity in
  (match c.clock_width with
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
    c.comb_delays;
  (match c.setup_bound with
   | Some bound ->
       List.iter
         (fun (_, sd) -> v := Float.max !v (sd -. bound))
         r.Sta.setup_times
   | None -> ());
  if !v = neg_infinity then 0.0 else !v

(* The figure of merit [Fastest] minimizes. *)
let merit (r : Sta.report) =
  r.Sta.clock_width
  +. List.fold_left (fun acc (_, wd) -> Float.max acc wd) 0.0
       r.Sta.output_delays

module G = Sta.Graph

(* Instance [i]'s size after one upsizing step. *)
let upsized g i = Float.min max_size (G.size g i *. size_step)

(* Try upsizing instance [i] in place: apply, analyze, [read] the
   result, restore. Loads are recomputed, not patched, on both resizes,
   so the graph is left exactly as it was. *)
let evaluate g evals i read =
  let old = G.size g i in
  G.set_size g i (upsized g i);
  incr evals;
  let x = read (G.analyze g) in
  G.set_size g i old;
  x

(* Fold [f] over the instances [keep] selects, in netlist order. *)
let fold_candidates g keep f init =
  let acc = ref init in
  for i = 0 to G.instance_count g - 1 do
    if keep i then acc := f !acc i
  done;
  !acc

(* Candidate instances: the TILOS move — only gates on the current
   critical path are worth upsizing; trying each of those and keeping
   the best violation-improvement per added area is cheap because the
   path is short compared to the netlist. *)
let best_upsize g evals c current_violation =
  let base_area = G.cell_area g in
  let try_candidates keep =
    fold_candidates g keep
      (fun best i ->
        if G.size g i >= max_size then best
        else
          let v', area' =
            evaluate g evals i (fun r' -> (violation r' c, G.cell_area g))
          in
          let gain = current_violation -. v' in
          if gain <= 1e-9 then best
          else
            let cost = Float.max 1.0 (area' -. base_area) in
            let score = gain /. cost in
            match best with
            | Some (_, best_score) when best_score >= score -> best
            | _ -> Some (i, score))
      None
  in
  (* the violated constraint may not lie on the globally-worst path
     (e.g. a clock-width bound while an untimed output is slower);
     fall back to the full netlist when the path offers no gain *)
  let on_path = G.critical_mask g in
  match try_candidates (Array.get on_path) with
  | Some (i, _) -> Some i
  | None -> Option.map fst (try_candidates (fun _ -> true))

(* Meet the constraints by greedy upsizing on one compiled timing graph.
   Returns the sized netlist (best effort: if constraints are
   unreachable the largest-improvement netlist found is returned). *)
let size_to_constraints (nl : Netlist.t) (c : constraints) =
  Icdb_obs.Trace.with_span "sizing.size" @@ fun () ->
  match c.strategy with
  | Cheapest -> nl  (* minimum area: leave everything at size 1 *)
  | Fastest | Balanced ->
      let g = G.compile ~port_loads:c.port_loads nl in
      let evals = ref 0 in
      let rec fastest iters =
        (* upsize gates on the critical path while the merit (delay)
           keeps dropping measurably *)
        if iters < max_iterations then begin
          let m = merit (G.analyze g) in
          let on_path = G.critical_mask g in
          let keep =
            if Array.mem true on_path then Array.get on_path else fun _ -> true
          in
          let candidate =
            fold_candidates g keep
              (fun best i ->
                if G.size g i >= max_size then best
                else
                  let m' = evaluate g evals i merit in
                  match best with
                  | Some (_, bm) when bm <= m' -> best
                  | _ -> if m' < m -. 1e-6 then Some (i, m') else best)
              None
          in
          match candidate with
          | Some (i, _) ->
              G.set_size g i (upsized g i);
              fastest (iters + 1)
          | None -> ()
        end
      in
      let rec balanced iters =
        let v = violation (G.analyze g) c in
        if v <= 0.0 || iters >= max_iterations then ()
        else
          match best_upsize g evals c v with
          | Some i ->
              G.set_size g i (upsized g i);
              balanced (iters + 1)
          | None -> ()
      in
      if c.strategy = Fastest then fastest 0 else balanced 0;
      if Icdb_obs.Trace.enabled () then
        Icdb_obs.Trace.add_attr "evaluations" (string_of_int !evals);
      G.to_netlist g

let meets_constraints nl c =
  let r = Sta.analyze ~port_loads:c.port_loads nl in
  violation r c <= 0.0
