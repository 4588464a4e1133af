(* Workload [frontier]: the exploration store as a database. One thread
   works on a fresh journaled Icdb_explore.Store bulk-loaded with seeded
   synthetic exploration rows, running a fixed-share mix of planner
   reads and index-maintaining journaled writes:

   - indexed PARETO ... WHERE sweep = ... frontiers;
   - spec_key point probes (one in ten asks for a key never stored);
   - a full scan with a filter, a sort and a LIMIT;
   - Store.add inserts, with a Store.checkpoint every [checkpoint_every]
     inserts (timed as part of the insert that triggers it).

   The run is a sequence of epochs of [epoch_ops] operations, each on a
   fresh store loaded with its own seeded rows, so that the table (and
   the heap) a run ends with does not depend on how fast it went. The
   net layer and generation are bypassed. Every read is checked against
   a plain reference kept over the bench's own list of the rows it
   inserted. *)

open Common
module Ax = Icdb_explore.Axis
module Store = Icdb_explore.Store
module Sizing = Icdb_timing.Sizing
module Value = Icdb_reldb.Value
module Sql = Icdb_reldb.Sql
module Query = Icdb_reldb.Query
module Plan = Icdb_reldb.Plan

let initial_rows = 10_000
let sweeps = 16
let checkpoint_every = 400
let scan_limit = 10
let gate_thresholds = [| 200; 400; 600; 800 |]

(* One deck of 20 operations, shuffled per deck: the shares are exact
   at every deck boundary. Probes are the cheapest class, then inserts,
   frontiers and scans, so p50 falls among inserts and p90 among
   frontiers. *)
type kind = Probe | Insert | Pareto | Scan

let deck =
  Array.concat
    [ Array.make 6 Probe; Array.make 8 Insert; Array.make 5 Pareto; Array.make 1 Scan ]

let epoch_ops = 100 * Array.length deck

let kind_name = function
  | Probe -> "probe" | Insert -> "insert" | Pareto -> "pareto" | Scan -> "scan"

(* ------------------------------------------------------------------ *)
(* Synthetic rows                                                      *)
(* ------------------------------------------------------------------ *)

let families = [| "adder"; "counter"; "alu"; "comparator" |]
let strategies = [| Sizing.Fastest; Sizing.Cheapest; Sizing.Balanced |]
let bounds = Array.init 25 (fun i -> if i = 0 then None else Some (float_of_int (2 * i)))
let lattice_size = Array.length families * 16 * 3 * 25 * 25

(* The [i]-th distinct lattice point (mixed radix). *)
let point i =
  let d = i mod 25 and i = i / 25 in
  let c = i mod 25 and i = i / 25 in
  let s = i mod 3 and i = i / 3 in
  let z = i mod 16 and f = i / 16 in
  { Ax.p_component = families.(f);
    p_attrs = [ ("size", 2 + z) ];
    p_strategy = strategies.(s);
    p_clock = bounds.(c);
    p_delay = bounds.(d) }

let sweep_name k = Printf.sprintf "s%02d" k

type row = { sweep : string; res : Store.result }

(* Row [n] of an epoch: a distinct point and seeded figures. *)
let make_row ~seed ~epoch perm n =
  let rng = Random.State.make [| seed; epoch; n |] in
  let p = point perm.(n) in
  let area = Float.round (Random.State.float rng 99_000.0 *. 100.0) /. 100.0 +. 1000.0 in
  let delay = Float.round (Random.State.float rng 99.0 *. 1000.0) /. 1000.0 +. 1.0 in
  { sweep = sweep_name (Random.State.int rng sweeps);
    res =
      { Store.r_point = p;
        r_instance = Printf.sprintf "%s_%d" p.Ax.p_component n;
        r_area = area;
        r_delay = delay;
        r_power = 0.0;
        r_gates = 50 + Random.State.int rng 950;
        r_cache = "miss";
        r_latency_s = Random.State.float rng 0.1;
        r_degraded = false;
        r_constraints_met = Random.State.bool rng } }

(* The relation's columns for a row, as the store documents them. *)
let row_values r =
  let p = r.res.Store.r_point in
  [| Value.Str (Ax.point_key p); Value.Str r.sweep; Value.Str p.Ax.p_component;
     Value.Str (Ax.attrs_string p.Ax.p_attrs);
     Value.Str (Ax.strategy_name p.Ax.p_strategy);
     Value.Float (Option.value ~default:0.0 p.Ax.p_clock);
     Value.Float (Option.value ~default:0.0 p.Ax.p_delay);
     Value.Str r.res.Store.r_instance; Value.Float r.res.Store.r_area;
     Value.Float r.res.Store.r_delay; Value.Float r.res.Store.r_power;
     Value.Int r.res.Store.r_gates; Value.Str r.res.Store.r_cache;
     Value.Float r.res.Store.r_latency_s; Value.Bool r.res.Store.r_degraded;
     Value.Bool r.res.Store.r_constraints_met |]

(* ------------------------------------------------------------------ *)
(* Statements                                                          *)
(* ------------------------------------------------------------------ *)

let pareto_sql sweep =
  Printf.sprintf "PARETO %s ON area, delay WHERE sweep = %s" Store.table_name
    (Sql.quote_string sweep)

let probe_cols = [| 0; 1; 8; 9; 11 |]  (* spec_key, sweep, area, delay, gates *)

let probe_sql key =
  Printf.sprintf "SELECT spec_key, sweep, area, delay, gates FROM %s WHERE spec_key = %s"
    Store.table_name (Sql.quote_string key)

let scan_cols = [| 0; 8; 9 |]  (* spec_key, area, delay *)

let scan_sql g =
  Printf.sprintf
    "SELECT spec_key, area, delay FROM %s WHERE gates >= %d ORDER BY area LIMIT %d"
    Store.table_name g scan_limit

(* What one operation did, kept for the check after the run. *)
type op =
  | Oinsert of int  (* row number *)
  | Oread of kind * string * Sql.result  (* the statement's parameter *)

type env = {
  store : Store.t;
  seed : int;
  epoch : int;
  perm : int array;         (* row number -> lattice point *)
  mutable inserted : int;   (* rows in the store *)
  mutable since_ckpt : int;
  rows : row array;         (* every row the epoch can insert *)
}

let rows_per_epoch = initial_rows + epoch_ops

let permutation seed =
  let perm = Array.init lattice_size Fun.id in
  shuffle (Random.State.make [| seed; -1 |]) perm;
  perm

let setup ~seed ~perm epoch () =
  let store = Store.open_ (fresh_dir "frontier-store") in
  let rows = Array.init rows_per_epoch (make_row ~seed ~epoch perm) in
  for n = 0 to initial_rows - 1 do
    Store.add store ~sweep:rows.(n).sweep rows.(n).res
  done;
  Store.checkpoint store;
  { store; seed; epoch; perm; inserted = initial_rows; since_ckpt = 0; rows }

let dispose env = Store.close env.store

let journal_size env =
  try (Unix.stat (Filename.concat (Store.dir env.store) "explore.journal")).Unix.st_size
  with Unix.Unix_error _ -> 0

(* ------------------------------------------------------------------ *)
(* The closed loop                                                     *)
(* ------------------------------------------------------------------ *)

type phase = {
  ops : op array;
  kinds : kind array;
  lats : float array;
  wall : float;
  ckpt_times : float list;
  journal_bytes : int;   (* appended by this epoch's inserts *)
  inserts : int;
  errors : string list;
}

(* One epoch's [epoch_ops] operations, in shuffled decks. *)
let measure env =
  let rng = Random.State.make [| env.seed; env.epoch; 11 |] in
  let ops = Array.make epoch_ops (Oinsert 0) in
  let kinds = Array.make epoch_ops Insert in
  let lats = Array.make epoch_ops 0.0 in
  let ckpts = ref [] and journal_bytes = ref 0 and inserts = ref 0 in
  let errors = ref [] in
  let j0 = ref (journal_size env) in
  let cur = Array.copy deck in
  let i = ref 0 in
  let t0 = now () in
  while !i < epoch_ops do
    shuffle rng cur;
    Array.iter
      (fun kind ->
        let param, stmt =
          match kind with
          | Probe ->
              (* the last points of the permutation are never stored *)
              let n =
                if Random.State.int rng 10 = 0 then
                  lattice_size - 1 - Random.State.int rng 1000
                else Random.State.int rng env.inserted
              in
              let key = Ax.point_key (point env.perm.(n)) in
              (key, probe_sql key)
          | Pareto ->
              let sw = sweep_name (Random.State.int rng sweeps) in
              (sw, pareto_sql sw)
          | Scan ->
              let g =
                gate_thresholds.(Random.State.int rng (Array.length gate_thresholds))
              in
              (string_of_int g, scan_sql g)
          | Insert -> ("", "")
        in
        let t = now () in
        let op =
          match kind with
          | Insert ->
              let n = env.inserted in
              Store.add env.store ~sweep:env.rows.(n).sweep env.rows.(n).res;
              env.inserted <- n + 1;
              env.since_ckpt <- env.since_ckpt + 1;
              incr inserts;
              if env.since_ckpt >= checkpoint_every then begin
                journal_bytes := !journal_bytes + journal_size env - !j0;
                let (), dt = time (fun () -> Store.checkpoint env.store) in
                ckpts := dt :: !ckpts;
                j0 := journal_size env;
                env.since_ckpt <- 0
              end;
              Oinsert n
          | _ -> (
              match Store.query env.store stmt with
              | res -> Oread (kind, param, res)
              | exception e ->
                  errors := Printf.sprintf "%s: %s" stmt (Printexc.to_string e) :: !errors;
                  Oread (kind, param, Sql.Affected (-1)))
        in
        lats.(!i) <- now () -. t;
        ops.(!i) <- op;
        kinds.(!i) <- kind;
        incr i)
      cur
  done;
  let wall = now () -. t0 in
  journal_bytes := !journal_bytes + journal_size env - !j0;
  { ops; kinds; lats; wall; ckpt_times = !ckpts; journal_bytes = !journal_bytes;
    inserts = !inserts; errors = List.rev !errors }

(* ------------------------------------------------------------------ *)
(* The reference, off the clock                                        *)
(* ------------------------------------------------------------------ *)

(* Plain incremental answers over the rows in insertion order: a key
   table for probes, each sweep's area/delay frontier (a new row joins
   unless an existing frontier row dominates it, and evicts the rows it
   dominates; equal points never dominate each other), and for each
   gate threshold the [scan_limit] smallest areas, ties in insertion
   order. *)
type reference = {
  by_key : (string, int) Hashtbl.t;
  fronts : (string, int list) Hashtbl.t;  (* newest first *)
  tops : (int, (float * int) list) Hashtbl.t;
}

let reference () =
  { by_key = Hashtbl.create 65536; fronts = Hashtbl.create 16; tops = Hashtbl.create 4 }

let ref_insert rf env n =
  let r = env.rows.(n) in
  Hashtbl.replace rf.by_key (Ax.point_key r.res.Store.r_point) n;
  let xy m = (env.rows.(m).res.Store.r_area, env.rows.(m).res.Store.r_delay) in
  let dominates (ax, ay) (bx, by) = ax <= bx && ay <= by && (ax < bx || ay < by) in
  let me = xy n in
  let front = Option.value (Hashtbl.find_opt rf.fronts r.sweep) ~default:[] in
  if not (List.exists (fun m -> dominates (xy m) me) front) then
    Hashtbl.replace rf.fronts r.sweep
      (n :: List.filter (fun m -> not (dominates me (xy m))) front);
  Array.iter
    (fun g ->
      if r.res.Store.r_gates >= g then begin
        let top = Option.value (Hashtbl.find_opt rf.tops g) ~default:[] in
        let top = List.merge compare top [ (r.res.Store.r_area, n) ] in
        Hashtbl.replace rf.tops g (List.filteri (fun i _ -> i < scan_limit) top)
      end)
    gate_thresholds

let render_rows rows =
  String.concat "\n"
    (List.map
       (fun row -> String.concat "|" (Array.to_list (Array.map Value.to_string row)))
       rows)

let render_result = function
  | Sql.Relation rel -> render_rows rel.Query.rrows
  | Sql.Affected n -> Printf.sprintf "affected %d" n

(* The reference answer to a read, from the statement's parameter. *)
let ref_answer rf env kind param =
  let row ?cols n =
    let v = row_values env.rows.(n) in
    match cols with Some c -> Array.map (fun i -> v.(i)) c | None -> v
  in
  match kind with
  | Probe -> (
      match Hashtbl.find_opt rf.by_key param with
      | Some n -> render_rows [ row ~cols:probe_cols n ]
      | None -> "")
  | Pareto ->
      let front = Option.value (Hashtbl.find_opt rf.fronts param) ~default:[] in
      render_rows (List.map row (List.sort compare front))
  | Scan ->
      let top =
        Option.value (Hashtbl.find_opt rf.tops (int_of_string param)) ~default:[]
      in
      render_rows (List.map (fun (_, n) -> row ~cols:scan_cols n) top)
  | Insert -> assert false

(* Replays the epoch's initial load and then its operations in order
   against the reference, comparing every read. *)
let check env ph out =
  let rf = reference () in
  for n = 0 to initial_rows - 1 do ref_insert rf env n done;
  let failed = ref 0 and problems = ref ph.errors in
  Array.iter
    (function
      | Oinsert n ->
          ref_insert rf env n;
          digest_add out (Printf.sprintf "insert %d" n)
      | Oread (kind, param, res) ->
          let got = render_result res and want = ref_answer rf env kind param in
          digest_add out got;
          if got <> want then begin
            incr failed;
            if !failed <= 5 then
              problems :=
                Printf.sprintf "epoch %d: %s %s answered %S, reference %S" env.epoch
                  (kind_name kind) param got want
                :: !problems
          end)
    ph.ops;
  (!failed, List.rev !problems)

(* ------------------------------------------------------------------ *)
(* Per-layer figures                                                   *)
(* ------------------------------------------------------------------ *)

let explain_sample = 10

(* Rows the access step touched and rows the statement returned, over a
   sample of the epoch's statements of one kind, from EXPLAIN ANALYZE's
   node actuals. *)
let rows_examined env ph kind =
  Array.to_list ph.ops
  |> List.filter_map (function
       | Oread (k, param, _) when k = kind -> (
           match kind with
           | Probe -> Some (probe_sql param)
           | Pareto -> Some (pareto_sql param)
           | Scan -> Some (scan_sql (int_of_string param))
           | Insert -> None)
       | _ -> None)
  |> List.filteri (fun i _ -> i < explain_sample)
  |> List.fold_left
       (fun (examined, returned) s ->
         match Sql.exec_explained (Store.db env.store) ("EXPLAIN ANALYZE " ^ s) with
         | _, Some plan -> (
             match List.filter_map (fun st -> st.Plan.s_rows_out) plan.Plan.p_steps with
             | first :: _ as outs ->
                 (examined + first, returned + List.nth outs (List.length outs - 1))
             | [] -> (examined, returned))
         | _, None -> (examined, returned))
       (0, 0)

let index_columns = [ "spec_key"; "sweep"; "component" ]

let index_hits () =
  List.map
    (fun col ->
      counter_value (Printf.sprintf "reldb.index.%s.%s.hits" Store.table_name col))
    index_columns

(* ------------------------------------------------------------------ *)
(* Measurement                                                         *)
(* ------------------------------------------------------------------ *)

type tally = {
  mutable blocks : block list;  (* one per epoch *)
  mutable setups : float list;
  mutable wall : float;
  mutable busy : float;         (* sum of operation latencies *)
  mutable attempted : int;
  mutable failed : int;
  mutable problems : string list;
  class_sums : (kind, int * float) Hashtbl.t;  (* operations, seconds *)
  mutable ckpt_times : float list;
  mutable journal_bytes : int;
  mutable inserts : int;
  mutable examined : (kind * (int * int)) list;
  mutable hits : int list;
  out : digest;
}

let class_sum t k = Option.value (Hashtbl.find_opt t.class_sums k) ~default:(0, 0.0)

let class_mean t k =
  let n, sum = class_sum t k in
  ratio sum (float_of_int n)

let run_phase ~seed ~seconds =
  let perm = permutation seed in
  let t =
    { blocks = []; setups = []; wall = 0.0; busy = 0.0; attempted = 0; failed = 0;
      problems = []; class_sums = Hashtbl.create 4; ckpt_times = [];
      journal_bytes = 0; inserts = 0; examined = []; hits = [ 0; 0; 0 ];
      out = digest () }
  in
  run_epochs ~seconds (fun epoch ->
      let env, dt = time (setup ~seed ~perm epoch) in
      t.setups <- dt :: t.setups;
      let h0 = index_hits () in
      let ph = measure env in
      t.hits <- List.map2 (fun a (h1, h0) -> a + h1 - h0) t.hits
          (List.combine (index_hits ()) h0);
      t.blocks <- block ~ops:epoch_ops ~wall:ph.wall (Array.to_list ph.lats) :: t.blocks;
      t.wall <- t.wall +. ph.wall;
      t.busy <- t.busy +. Array.fold_left ( +. ) 0.0 ph.lats;
      t.attempted <- t.attempted + epoch_ops;
      Array.iteri
        (fun i k ->
          let n, sum = class_sum t k in
          Hashtbl.replace t.class_sums k (n + 1, sum +. ph.lats.(i)))
        ph.kinds;
      t.ckpt_times <- ph.ckpt_times @ t.ckpt_times;
      t.journal_bytes <- t.journal_bytes + ph.journal_bytes;
      t.inserts <- t.inserts + ph.inserts;
      if Trace.enabled () then
        t.examined <-
          List.map
            (fun k ->
              let e, r = rows_examined env ph k in
              let e0, r0 = Option.value (List.assoc_opt k t.examined) ~default:(0, 0) in
              (k, (e0 + e, r0 + r)))
            [ Pareto; Probe; Scan ];
      let failed, problems = check env ph t.out in
      t.failed <- t.failed + failed;
      t.problems <- t.problems @ problems;
      dispose env;
      ph.wall);
  t

let layers t ~untraced_ops_per_s =
  let ckpt_total = List.fold_left ( +. ) 0.0 t.ckpt_times in
  let insert_us =
    (snd (class_sum t Insert) -. ckpt_total) /. float_of_int (max 1 t.inserts) *. 1e6
  in
  let examined k =
    let e, r = Option.value (List.assoc_opt k t.examined) ~default:(0, 0) in
    ratio (float_of_int e) (float_of_int r)
  in
  let per_op h = float_of_int h /. float_of_int (max 1 t.attempted) in
  let hits = List.combine index_columns t.hits in
  [ ("reldb.pareto_us", class_mean t Pareto *. 1e6, "us");
    ("reldb.probe_us", class_mean t Probe *. 1e6, "us");
    ("reldb.scan_us", class_mean t Scan *. 1e6, "us");
    ("reldb.insert_us", insert_us, "us");
    ("reldb.checkpoint_s", mean t.ckpt_times, "s");
    ("reldb.rows_examined_per_row.pareto", examined Pareto, "ratio");
    ("reldb.rows_examined_per_row.probe", examined Probe, "ratio");
    ("reldb.rows_examined_per_row.scan", examined Scan, "ratio");
    ("reldb.index_hits_per_op.spec_key", per_op (List.assoc "spec_key" hits), "1/op");
    ("reldb.index_hits_per_op.sweep", per_op (List.assoc "sweep" hits), "1/op");
    ("reldb.index_hits_per_op.component", per_op (List.assoc "component" hits), "1/op");
    ( "reldb.journal_bytes_per_row",
      ratio (float_of_int t.journal_bytes) (float_of_int t.inserts),
      "B/row" );
    ("frontier.unattributed_share", (t.wall -. t.busy) /. t.wall, "ratio");
    ( "frontier.trace_ops_ratio",
      ratio (float_of_int t.attempted /. t.wall) untraced_ops_per_s,
      "ratio" ) ]

let report name t =
  Printf.printf "%s: %d blocks of %d operations, median p50 %.4f ms, p90 %.4f ms\n"
    name (List.length t.blocks) epoch_ops
    (median (List.map (fun b -> b.lat.p50) t.blocks) *. 1e3)
    (median (List.map (fun b -> b.lat.p90) t.blocks) *. 1e3);
  List.iter
    (fun kind ->
      let n, _ = class_sum t kind in
      Printf.printf "  %-6s %7d ops, mean %.4f ms\n" (kind_name kind) n
        (class_mean t kind *. 1e3))
    [ Probe; Insert; Pareto; Scan ];
  Printf.printf "frontier: %d epochs, %d operations in %.2f s, %d checkpoints\n"
    (List.length t.blocks) t.attempted t.wall (List.length t.ckpt_times);
  digest_print "frontier output" t.out

let run (opts : opts) =
  let perm = permutation opts.seed in
  (* epoch [e]'s rows and operations derive from (seed, e) alone, and
     every run does epoch 0 *)
  print_input_digest "frontier epoch 0"
    (List.init rows_per_epoch (fun n ->
         let r = make_row ~seed:opts.seed ~epoch:0 perm n in
         Printf.sprintf "%d|%s|%h|%h|%d|%b" perm.(n) r.sweep r.res.Store.r_area
           r.res.Store.r_delay r.res.Store.r_gates r.res.Store.r_constraints_met));
  let t = run_phase ~seed:opts.seed ~seconds:opts.seconds in
  let heap_mb = heap_peak_mb () in
  report "frontier operation latency" t;
  let e2e = e2e_metrics ~blocks:t.blocks ~setup:(median t.setups) ~heap_mb in
  let base =
    { attempted = t.attempted; failed = t.failed; problems = t.problems; e2e;
      layers = [] }
  in
  if not opts.trace then base
  else begin
    enable_tracing ();
    let tt = run_phase ~seed:opts.seed ~seconds:opts.seconds in
    Trace.set_enabled false;
    report "frontier traced operation latency" tt;
    { attempted = base.attempted + tt.attempted;
      failed = base.failed + tt.failed;
      problems = base.problems @ tt.problems;
      e2e;
      layers = layers tt ~untraced_ops_per_s:(float_of_int t.attempted /. t.wall) }
  end
