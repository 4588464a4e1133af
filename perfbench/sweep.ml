(* Workload [sweep]: design-space exploration through
   Icdb_explore.Driver (Local backend, verify off as `icdb explore`
   defaults) into a fresh journaled Store. This is the generation path:
   IIF expansion, logic optimization, technology mapping, TILOS-style
   sizing with its repeated static timing analysis, shape estimation,
   and the persist of every point.

   The lattice spans four families (adder, counter, alu, comparator)
   and varies size, sizing strategy, clock bound and delay bound. The
   run is a sequence of epochs; each epoch is one `icdb explore`
   invocation's worth of work: a fresh server and a fresh store sweep
   the whole lattice, in an order drawn from the seed. Epochs run whole
   until the time is up. *)

open Common
module Ax = Icdb_explore.Axis
module Store = Icdb_explore.Store
module Driver = Icdb_explore.Driver
module Sizing = Icdb_timing.Sizing
module Value = Icdb_reldb.Value
module Server = Icdb.Server

(* Sizes are kept where no point costs much over 0.1 s. Point costs
   cluster by structure, and nearest-rank p50 must fall inside a
   cluster, not on the gap between two, or it jumps between them with
   noise: with these cells as many points cost less than the adder-4
   cluster as cost more, so p50 sits in its middle. *)
let cells =
  [ ("adder", [ 2; 3; 4; 5; 6 ]); ("counter", [ 2; 3 ]); ("alu", [ 2 ]);
    ("comparator", [ 3 ]) ]

(* Every point carries a delay bound, and the strategies are the two
   that size against it, so most points run the whole generation path
   and the median point is dominated by computation rather than by the
   file writes of its persist. *)
let axes = [ "strategy=fastest,balanced"; "clock=none,10,20"; "delay=6,8" ]

let lattice =
  List.concat_map
    (fun (fam, sizes) ->
      List.concat_map
        (fun size ->
          Ax.expand ~component:fam
            (List.map Ax.parse (Printf.sprintf "size=%d" size :: axes)))
        sizes)
    cells

let sweep_name = "perfbench"

(* Epoch [e]'s order: a seeded interleaving of the (cell, strategy)
   groups that keeps each group's points in lattice order. Reuse only
   ever crosses points of one group (same structure, same strategy), so
   which points are answered by reuse does not depend on the seed; the
   interleaving decides everything else, such as which group of a
   structure pays for its synthesis before the memo holds it. *)
let epoch_points seed e =
  let groups = Hashtbl.create 32 in
  let order = ref [] in
  List.iter
    (fun p ->
      let g = (p.Ax.p_component, p.Ax.p_attrs, p.Ax.p_strategy) in
      match Hashtbl.find_opt groups g with
      | Some q -> Queue.add p q
      | None ->
          let q = Queue.create () in
          Queue.add p q;
          Hashtbl.replace groups g q;
          order := q :: !order)
    lattice;
  let queues = Array.of_list (List.rev !order) in
  let rng = Random.State.make [| seed; e |] in
  let remaining = ref (List.length lattice) in
  List.init !remaining (fun _ ->
      (* a uniformly random interleaving: pick a group with probability
         proportional to what it has left *)
      let k = ref (Random.State.int rng !remaining) in
      let i = ref 0 in
      while !k >= Queue.length queues.(!i) do
        k := !k - Queue.length queues.(!i);
        incr i
      done;
      decr remaining;
      Queue.pop queues.(!i))

type env = { server : Server.t; store : Store.t }

let setup () =
  let server = Server.create ~verify:false ~workspace:(fresh_dir "sweep-ws") () in
  let store = Store.open_ (fresh_dir "sweep-store") in
  (* warm-up outside the lattice: one small structure per family, each
     of a size the lattice does not contain, so first-request
     initialization is paid here while no lattice structure reaches the
     memo. The adder is also sized against a delay bound. That pays the
     sizing path's first use, and makes set-up mostly computation:
     without it, set-up is mostly the server writing its component
     library to the workspace, some 26 small files, and its time swung
     up to 3x between runs on a shared disk. *)
  List.iter
    (fun (fam, axes) ->
      List.iter
        (fun p -> ignore (Icdb_cql.Exec.run server (Ax.point_cql p)))
        (Ax.expand ~component:fam (List.map Ax.parse axes)))
    [ ("adder", [ "size=8"; "strategy=fastest"; "delay=6" ]);
      ("counter", [ "size=4"; "strategy=cheapest" ]);
      ("alu", [ "size=3"; "strategy=cheapest" ]);
      ("register", [ "size=2"; "strategy=cheapest" ]) ];
  { server; store }

let dispose env = Store.close env.store

(* ------------------------------------------------------------------ *)
(* Correctness, off the clock                                          *)
(* ------------------------------------------------------------------ *)

let render_row row =
  String.concat "|" (Array.to_list (Array.map Value.to_string row))

(* The persisted outputs in insertion order, minus the one
   non-deterministic column (latency). *)
let output_rows env =
  match
    Store.query env.store
      (Printf.sprintf
         "SELECT spec_key, instance, area, delay, gates, cache, degraded, \
          constraints_met FROM %s"
         Store.table_name)
  with
  | Icdb_reldb.Sql.Relation r -> r.Icdb_reldb.Query.rrows
  | Icdb_reldb.Sql.Affected _ -> []

let verify_sample = 2

(* Problems found in one epoch: failed points, a resume rerun that does
   any work, and sampled points whose figures differ when requested
   again on a fresh server that simulates every netlist against its
   IIF specification. Reuse answers are another point's instance, so
   only points that ran the generation path are sampled. Also returns
   how many operations proved wrong: points the rerun executed again,
   and sampled points that differ. *)
let check ~seed ~epoch env pts (s : Driver.summary) out =
  let problems = ref [] and wrong = ref 0 in
  let fail fmt = Printf.ksprintf (fun m -> problems := m :: !problems) fmt in
  List.iter
    (fun f ->
      fail "point %s failed: %s" (Ax.point_to_string f.Driver.f_point)
        f.Driver.f_reason)
    s.Driver.s_failures;
  let again = Driver.run ~sweep:sweep_name (Driver.Local env.server) env.store pts in
  if again.Driver.s_executed <> 0 then begin
    wrong := !wrong + again.Driver.s_executed;
    fail "epoch %d: resume rerun executed %d points" epoch again.Driver.s_executed
  end;
  let rows = output_rows env in
  List.iter (fun row -> digest_add out (render_row row)) rows;
  let misses = Hashtbl.create 256 in
  List.iter
    (fun row ->
      match row.(0), row.(5) with
      | Value.Str k, Value.Str "miss" -> Hashtbl.replace misses k row
      | _ -> ())
    rows;
  let candidates =
    Array.of_list (List.filter (fun p -> Hashtbl.mem misses (Ax.point_key p)) pts)
  in
  shuffle (Random.State.make [| seed; epoch; 77 |]) candidates;
  let sample =
    Array.sub candidates 0 (min verify_sample (Array.length candidates))
  in
  let fresh = Server.create ~verify:true ~workspace:(fresh_dir "sweep-verify") () in
  Array.iter
    (fun p ->
      let row = Hashtbl.find misses (Ax.point_key p) in
      match Icdb_cql.Exec.run fresh (Ax.point_cql p) with
      | res ->
          let inst =
            Server.find_instance fresh (Icdb_cql.Exec.get_string res "instance")
          in
          let got =
            [| Value.Float (Icdb.Instance.best_area inst);
               Value.Float (Icdb.Instance.worst_delay inst);
               Value.Int (Icdb.Instance.gate_count inst) |]
          in
          let want = [| row.(2); row.(3); row.(4) |] in
          if render_row got <> render_row want then begin
            incr wrong;
            fail "point %s: verified area|delay|gates %s, timed run %s"
              (Ax.point_to_string p) (render_row got) (render_row want)
          end
      | exception e ->
          incr wrong;
          fail "point %s: verifying request failed: %s" (Ax.point_to_string p)
            (Printexc.to_string e))
    sample;
  (List.rev !problems, !wrong, again.Driver.s_executed, Array.length sample)

(* ------------------------------------------------------------------ *)
(* Measurement                                                         *)
(* ------------------------------------------------------------------ *)

let hist_names =
  [ "sta.analyze"; "opt.optimize"; "techmap.map"; "expand"; "shape.estimate";
    "persist"; "journal.append" ]

type tally = {
  mutable epochs : int;
  mutable points : int;     (* executed *)
  mutable attempted : int;  (* handed to the driver *)
  mutable failed : int;     (* failed points, and points found wrong *)
  mutable wall : float;     (* seconds inside Driver.run *)
  mutable blocks : block list;  (* one per epoch *)
  mutable setups : float list;
  mutable problems : string list;
  mutable verified : int;
  mutable reexecuted : int;  (* by the resume reruns *)
  mutable memo_hits : int;
  mutable memo_misses : int;
  selfs : (string, int) Hashtbl.t;  (* span self-times, ns; traced only *)
  hists : (string, int * float) Hashtbl.t;  (* span histogram deltas *)
  mutable evicted : int;
  out : digest;
}

(* Set-up is timed [setups_per_epoch] times before each epoch, and the
   last environment runs it. On a shared two-vCPU virtual machine, the
   cost of a set-up swung up to 2x from one second to the next, so the
   samples are spread over the whole run rather than taken in one
   burst. The heap is compacted before each, so that collecting the
   previous epoch's garbage is not timed as set-up. *)
let setups_per_epoch = 4

let timed_setups t =
  let rec go k =
    Gc.compact ();
    let env, dt = time setup in
    t.setups <- dt :: t.setups;
    if k = 1 then env
    else begin
      dispose env;
      go (k - 1)
    end
  in
  go setups_per_epoch

let run_epoch ~seed t =
  let env = timed_setups t in
  let pts = epoch_points seed t.epochs in
  let st0 = Server.stats env.server in
  let stamps = ref [] in
  let mark = Trace.finished_count () in
  let (s, dt), delta =
    span_delta hist_names (fun () ->
        time (fun () ->
            Driver.run ~sweep:sweep_name
              ~on_progress:(fun _ -> stamps := now () :: !stamps)
              (Driver.Local env.server) env.store pts))
  in
  let traced = Trace.enabled () in
  if traced then begin
    t.evicted <- t.evicted + self_times ~mark ~self:t.selfs;
    List.iter
      (fun (n, (c, sum)) ->
        let c0, s0 = Option.value (Hashtbl.find_opt t.hists n) ~default:(0, 0.0) in
        Hashtbl.replace t.hists n (c0 + c, s0 +. sum))
      delta
  end;
  let st1 = Server.stats env.server in
  (* the driver reports once at start and after every point *)
  let rec diffs = function
    | a :: (b :: _ as rest) -> (a -. b) :: diffs rest
    | _ -> []
  in
  t.blocks <- block ~ops:s.Driver.s_executed ~wall:dt (diffs !stamps) :: t.blocks;
  t.wall <- t.wall +. dt;
  t.points <- t.points + s.Driver.s_executed;
  t.attempted <- t.attempted + List.length pts;
  t.failed <- t.failed + List.length s.Driver.s_failures;
  t.memo_hits <- t.memo_hits + st1.Server.st_memo_hits - st0.Server.st_memo_hits;
  t.memo_misses <-
    t.memo_misses + st1.Server.st_memo_misses - st0.Server.st_memo_misses;
  (* the checks run untraced: their requests are not part of the phase *)
  Trace.set_enabled false;
  let problems, wrong, reexecuted, verified = check ~seed ~epoch:t.epochs env pts s t.out in
  Trace.set_enabled traced;
  t.problems <- t.problems @ problems;
  t.failed <- t.failed + wrong;
  t.reexecuted <- t.reexecuted + reexecuted;
  t.verified <- t.verified + verified;
  t.epochs <- t.epochs + 1;
  dispose env;
  dt

let measure ~seed ~seconds =
  let t =
    { epochs = 0; points = 0; attempted = 0; failed = 0; wall = 0.0; blocks = [];
      setups = []; problems = []; verified = 0; reexecuted = 0; memo_hits = 0;
      memo_misses = 0; selfs = Hashtbl.create 32; hists = Hashtbl.create 8;
      evicted = 0; out = digest () }
  in
  run_epochs ~seconds (fun _ -> run_epoch ~seed t);
  Printf.printf
    "sweep: %d epochs of %d points, %d executed in %.2f s, memo %d/%d, \
     %d points re-verified, resume reruns executed %d\n"
    t.epochs (List.length lattice) t.points t.wall t.memo_hits
    (t.memo_hits + t.memo_misses) t.verified t.reexecuted;
  t

(* ------------------------------------------------------------------ *)
(* Per-layer figures of a traced phase                                  *)
(* ------------------------------------------------------------------ *)

let layers t ~untraced_ops_per_s =
  let pts = float_of_int (max 1 t.points) in
  let hist n = Option.value (Hashtbl.find_opt t.hists n) ~default:(0, 0.0) in
  let count n = float_of_int (fst (hist n)) in
  let sum n = snd (hist n) in
  let per_point n = sum n /. pts in
  let attributed =
    Icdb_obs.Clock.ns_to_s (Hashtbl.fold (fun _ ns acc -> acc + ns) t.selfs 0)
  in
  [ ("timing.sta_calls_per_point", count "sta.analyze" /. pts, "1/point");
    ("timing.sta_s", per_point "sta.analyze", "s/point");
    ("timing.sta_share", sum "sta.analyze" /. t.wall, "ratio");
    ("timing.sizing_self_s", self_s t.selfs "sizing.size" /. pts, "s/point");
    ("logic.opt_s", per_point "opt.optimize", "s/point");
    ("logic.techmap_s", per_point "techmap.map", "s/point");
    ("iif.expand_s", per_point "expand", "s/point");
    ("layout.shape_s", per_point "shape.estimate", "s/point");
    ("core.persist_s", per_point "persist", "s/point");
    ("reldb.journal_append_s", per_point "journal.append", "s/point");
    ( "core.memo_hit_ratio",
      ratio (float_of_int t.memo_hits) (float_of_int (t.memo_hits + t.memo_misses)),
      "ratio" );
    ("sweep.unattributed_share", (t.wall -. attributed) /. t.wall, "ratio");
    ( "sweep.trace_ops_ratio",
      ratio (float_of_int t.points /. t.wall) untraced_ops_per_s,
      "ratio" );
    ("sweep.evicted_spans", float_of_int t.evicted, "count") ]

(* ------------------------------------------------------------------ *)

let run (opts : opts) =
  print_input_digest "sweep"
    (List.init 64 (fun e ->
         String.concat "," (List.map Ax.point_key (epoch_points opts.seed e))));
  let t = measure ~seed:opts.seed ~seconds:opts.seconds in
  let heap_mb = heap_peak_mb () in
  report_latency "sweep point latency" t.blocks;
  digest_print "sweep output" t.out;
  let e2e = e2e_metrics ~blocks:t.blocks ~setup:(median t.setups) ~heap_mb in
  let base =
    { attempted = t.attempted; failed = t.failed; problems = t.problems; e2e;
      layers = [] }
  in
  if not opts.trace then base
  else begin
    enable_tracing ();
    let tt = measure ~seed:opts.seed ~seconds:opts.seconds in
    Trace.set_enabled false;
    (* self-times from a ring that lost spans are incomplete *)
    let lost =
      if tt.evicted > 0 then
        [ Printf.sprintf "traced phase: the trace ring evicted %d spans" tt.evicted ]
      else []
    in
    { base with
      attempted = base.attempted + tt.attempted;
      failed = base.failed + tt.failed;
      problems = base.problems @ tt.problems @ lost;
      layers =
        layers tt ~untraced_ops_per_s:(float_of_int t.points /. t.wall) }
  end
