(* Shared plumbing for the workloads: options, clocks, latency
   statistics, digests, per-run temporary directories, and readings of
   the program's own trace instruments. *)

module Trace = Icdb_obs.Trace
module Metrics = Icdb_obs.Metrics

type opts = { seed : int; seconds : float; trace : bool }

(* What one workload run hands back to [Perfbench]. [e2e] carries the
   end-to-end metrics (always measured untraced); [layers] the per-layer
   ones (from the traced phase, empty on untraced runs). *)
type outcome = {
  attempted : int;
  failed : int;
  problems : string list;  (* correctness mismatches, empty when all agree *)
  e2e : (string * float * string) list;
  layers : (string * float * string) list;
}

(* Seconds on the monotonic clock, read in nanoseconds. gettimeofday's
   microsecond steps are a twentieth of a 20 us operation, so the
   percentiles of the fastest workloads took the same few values run
   after run. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let median = function
  | [] -> 0.0
  | l ->
      let a = Array.of_list l in
      Array.sort compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Nearest-rank percentile of [a], which must be sorted ascending. *)
let percentile a q =
  let n = Array.length a in
  if n = 0 then 0.0
  else
    let rank = int_of_float (Float.ceil (q *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))

let mean = function
  | [] -> 0.0
  | l -> List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l)

let ratio a b = if b = 0.0 then 0.0 else a /. b

(* Fisher-Yates, in place. *)
let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(* Latency summary of one measured phase, in seconds. *)
type lat = { n : int; p50 : float; p90 : float; sorted : float array }

let summarize lats =
  let a = Array.of_list lats in
  Array.sort compare a;
  { n = Array.length a; p50 = percentile a 0.50; p90 = percentile a 0.90; sorted = a }

(* Per-operation (completion time, latency) samples, kept off the OCaml
   heap so that the bench's own bookkeeping does not count in
   heap_peak_mb, however many operations a run completes. *)
module Samples = struct
  open Bigarray

  type t = {
    mutable n : int;
    mutable ends : (float, float64_elt, c_layout) Array1.t;
    mutable lats : (float, float64_elt, c_layout) Array1.t;
  }

  let create () =
    let a () = Array1.create float64 c_layout 65536 in
    { n = 0; ends = a (); lats = a () }

  let add t ~t_end ~lat =
    let cap = Array1.dim t.ends in
    if t.n = cap then begin
      let grow a =
        let b = Array1.create float64 c_layout (2 * cap) in
        Array1.blit a (Array1.sub b 0 cap);
        b
      in
      t.ends <- grow t.ends;
      t.lats <- grow t.lats
    end;
    Array1.unsafe_set t.ends t.n t_end;
    Array1.unsafe_set t.lats t.n lat;
    t.n <- t.n + 1

  (* Latencies of the operations that completed in each whole
     [block_s] slice after [t0]. *)
  let slices ts ~t0 ~wall ~block_s =
    let nb = int_of_float (wall /. block_s) in
    let l = Array.make nb [] in
    List.iter
      (fun t ->
        for i = 0 to t.n - 1 do
          let b = int_of_float ((t.ends.{i} -. t0) /. block_s) in
          if b >= 0 && b < nb then l.(b) <- t.lats.{i} :: l.(b)
        done)
      ts;
    Array.to_list l

  let lats ts =
    List.concat_map (fun t -> List.init t.n (fun i -> t.lats.{i})) ts
end

(* Every run must leave at least ten samples beyond p90. *)
let min_ops = 100

(* A run is cut into blocks (an epoch, or a slice of a closed loop).
   Throughput is the median of the per-block rates, so a transient stall
   elsewhere on the machine moves one block, not the result. *)
type block = { ops : int; wall : float; lat : lat }

let block ~ops ~wall lats = { ops; wall; lat = summarize lats }

(* The latencies of every block, pooled. *)
let pooled blocks = summarize (List.concat_map (fun b -> Array.to_list b.lat.sorted) blocks)

(* Runs [epoch 0], [epoch 1], ... until the measured seconds they
   return add up to [seconds]. *)
let run_epochs ~seconds epoch =
  let rec go e measured = if measured < seconds then go (e + 1) (measured +. epoch e) in
  go 0 0.0

(* The OCaml heap's high-water mark. Read it as soon as the measured
   phase ends, before the bench builds its latency lists. *)
let heap_peak_mb () =
  let st = Gc.quick_stat () in
  float_of_int (st.Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0

(* The end-to-end metric set every workload reports, in BENCHMARK.json
   order. Percentiles are over every operation of the run's blocks,
   pooled: a sweep block holds each lattice point once, so one block's
   percentile would jump between neighbouring points, while the pooled
   samples of several blocks spread over the gap. [setup] is the median
   of the workload's repeated set-ups. *)
let e2e_metrics ~blocks ~setup ~heap_mb =
  let lat = pooled blocks in
  [ ("ops_per_s", median (List.map (fun b -> float_of_int b.ops /. b.wall) blocks), "1/s");
    ("op_p50_ms", lat.p50 *. 1e3, "ms");
    ("op_p90_ms", lat.p90 *. 1e3, "ms");
    ("setup_s", setup, "s");
    ("heap_peak_mb", heap_mb, "MB") ]

let report_latency name blocks =
  let lat = pooled blocks in
  Printf.printf
    "%s: %d blocks of %d-%d samples; p50 %.4f ms, p90 %.4f ms over %d \
     samples (%d beyond p90)\n"
    name (List.length blocks)
    (List.fold_left (fun a b -> min a b.lat.n) max_int blocks)
    (List.fold_left (fun a b -> max a b.lat.n) 0 blocks)
    (lat.p50 *. 1e3) (lat.p90 *. 1e3) lat.n
    (lat.n - int_of_float (Float.ceil (0.9 *. float_of_int lat.n)));
  Printf.printf "%s: every 5th percentile, ms:%s\n" name
    (String.concat ""
       (List.init 19 (fun i ->
            Printf.sprintf " %.3g" (percentile lat.sorted (float_of_int (i + 1) /. 20.0) *. 1e3))))

(* ------------------------------------------------------------------ *)
(* Digests: two runs with one seed must show identical work            *)
(* ------------------------------------------------------------------ *)

(* Inputs are digested whole; outputs over the first [min_ops]
   operations (every run does at least that many, however fast the
   machine) and over everything the run did. The running digest folds
   its buffer every 64 KiB, so its memory does not grow with the run. *)
type digest = {
  buf : Buffer.t;
  mutable acc : string;
  mutable head : string option;
  mutable count : int;
}

let digest () = { buf = Buffer.create 4096; acc = ""; head = None; count = 0 }

let fold d =
  d.acc <- Digest.string (d.acc ^ Buffer.contents d.buf);
  Buffer.clear d.buf

let digest_add d s =
  Buffer.add_string d.buf s;
  Buffer.add_char d.buf '\n';
  d.count <- d.count + 1;
  if d.count = min_ops then begin
    fold d;
    d.head <- Some (Digest.to_hex d.acc)
  end
  else if Buffer.length d.buf > 65536 then fold d

let digest_print name d =
  fold d;
  Printf.printf "%s digest: first %d ops %s, all %d ops %s\n" name min_ops
    (Option.value d.head ~default:"-") d.count (Digest.to_hex d.acc)

let print_input_digest name parts =
  Printf.printf "%s input digest: %s\n" name
    (Digest.to_hex (Digest.string (String.concat "\n" parts)))

(* ------------------------------------------------------------------ *)
(* Temporary state, under the working directory and removed at exit    *)
(* ------------------------------------------------------------------ *)

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let alive pid =
  match Unix.kill pid 0 with
  | () -> true
  | exception Unix.Unix_error (Unix.ESRCH, _, _) -> false
  | exception Unix.Unix_error _ -> true

let tmp_root =
  lazy
    (let base = Filename.concat (Sys.getcwd ()) ".perfbench_tmp" in
     (try Unix.mkdir base 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
     (* what a killed run left behind *)
     Array.iter
       (fun d ->
         match int_of_string_opt d with
         | Some pid when not (alive pid) -> rm_rf (Filename.concat base d)
         | _ -> ())
       (Sys.readdir base);
     let dir = Filename.concat base (string_of_int (Unix.getpid ())) in
     Unix.mkdir dir 0o755;
     (* anything the program puts under the temp dir lands here too *)
     Filename.set_temp_dir_name dir;
     at_exit (fun () ->
         rm_rf dir;
         try Unix.rmdir base with Unix.Unix_error _ -> ());
     (* a terminated run still cleans up *)
     List.iter
       (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 130)))
       [ Sys.sigint; Sys.sigterm ];
     dir)

let counter = ref 0

(* A fresh, empty directory for one set-up. *)
let fresh_dir name =
  incr counter;
  let dir =
    Filename.concat (Lazy.force tmp_root) (Printf.sprintf "%s-%d" name !counter)
  in
  Unix.mkdir dir 0o755;
  dir

(* Set up [n] times and keep the last environment, disposing of the
   others; returns the set-up times with it. *)
let setups ~n ~setup ~dispose =
  let rec go k times last =
    if k = 0 then (times, Option.get last)
    else begin
      Option.iter dispose last;
      Gc.compact ();
      let env, dt = time setup in
      go (k - 1) (dt :: times) (Some env)
    end
  in
  go n [] None

(* ------------------------------------------------------------------ *)
(* The program's own instruments                                       *)
(* ------------------------------------------------------------------ *)

(* Count and sum of the [span.<name>] histogram Trace feeds. *)
let span_hist name =
  let h = Metrics.summary (Metrics.histogram ("span." ^ name)) in
  (h.Metrics.s_count, h.Metrics.s_sum)

let counter_value name = Metrics.counter_value (Metrics.counter name)

(* Snapshot of span histograms, diffed after a phase. *)
let span_delta names f =
  let before = List.map (fun n -> (n, span_hist n)) names in
  let r = f () in
  let delta =
    List.map
      (fun (n, (c0, s0)) ->
        let c1, s1 = span_hist n in
        (n, (c1 - c0, s1 -. s0)))
      before
  in
  (r, delta)

(* The completed-span ring must hold every span a traced phase makes,
   so that self-times computed from it miss nothing. *)
let ring_capacity = 1 lsl 18

let enable_tracing () =
  Trace.set_capacity ring_capacity;
  Trace.set_enabled true

(* Adds into [self] the self time, by span name, of every span finished
   since [mark]: its duration minus the durations of its direct
   children. Returns how many of those spans the ring had already
   evicted, which must be 0 for the sums to be complete. *)
let self_times ~mark ~self =
  let finished = Trace.finished_count () - mark in
  let spans = Trace.since mark in
  let evicted = finished - List.length spans in
  let dur = Hashtbl.create 1024 in
  List.iter
    (fun (s : Trace.span) -> Hashtbl.replace dur s.Trace.sid s.Trace.sdur_ns)
    spans;
  let child = Hashtbl.create 1024 in
  List.iter
    (fun (s : Trace.span) ->
      match s.Trace.sparent with
      | Some p when Hashtbl.mem dur p ->
          let prev = Option.value (Hashtbl.find_opt child p) ~default:0 in
          Hashtbl.replace child p (prev + s.Trace.sdur_ns)
      | _ -> ())
    spans;
  List.iter
    (fun (s : Trace.span) ->
      let own =
        s.Trace.sdur_ns
        - Option.value (Hashtbl.find_opt child s.Trace.sid) ~default:0
      in
      let prev = Option.value (Hashtbl.find_opt self s.Trace.sname) ~default:0 in
      Hashtbl.replace self s.Trace.sname (prev + own))
    spans;
  evicted

let self_s tbl name =
  Icdb_obs.Clock.ns_to_s (Option.value (Hashtbl.find_opt tbl name) ~default:0)

(* Mean seconds per call of [f] over [texts], repeated until at least
   [min_s] has elapsed, so that microsecond calls are timed in bulk. *)
let time_per_call ?(min_s = 0.2) texts f =
  let n = List.length texts in
  let calls = ref 0 in
  let t0 = now () in
  while now () -. t0 < min_s do
    List.iter (fun t -> ignore (Sys.opaque_identity (f t))) texts;
    calls := !calls + n
  done;
  (now () -. t0) /. float_of_int (max 1 !calls)
