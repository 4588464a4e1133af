(* Workload [serve_hot]: the daemon's hot path. An in-process
   Icdb_net.Service on loopback, with its default configuration apart
   from the port, answers two client connections, each driven by its
   own thread in a closed loop. The connections run a seeded mix of
   request_component, function_query, instance_query and
   component_query against a working set of a few dozen components,
   generated during set-up and far below the 512-entry cache, so every
   request is a cache hit: the net, cql and core cache layers do the
   work, and generation and reldb do almost none. *)

open Common
module Ax = Icdb_explore.Axis
module Exec = Icdb_cql.Exec
module Wire = Icdb_net.Wire
module Client = Icdb_net.Client
module Service = Icdb_net.Service
module Sync = Icdb_net.Sync
module Server = Icdb.Server

let clients = 2
let working_set = 32
let sequence_length = 4096

(* Working-set candidates: cheap to generate, distinct specs. *)
let lattice =
  List.concat_map
    (fun (fam, sizes) ->
      List.concat_map
        (fun size ->
          Ax.expand ~component:fam
            (List.map Ax.parse
               [ Printf.sprintf "size=%d" size; "strategy=cheapest,balanced" ]))
        sizes)
    [ ("adder", [ 2; 3; 4; 5; 6; 7; 8 ]); ("counter", [ 2; 3; 4 ]);
      ("comparator", [ 2; 3 ]); ("register", [ 2; 4; 6; 8 ]);
      ("alu", [ 2; 3 ]) ]

let functions = [ "INC"; "ADD"; "SUB"; "EQ"; "GT"; "AND"; "OR"; "XOR"; "LOAD"; "STORE" ]

let components =
  [ "counter"; "adder"; "alu"; "comparator"; "register"; "mux_scl"; "decode";
    "shifter" ]

let working_points seed =
  let a = Array.of_list lattice in
  shuffle (Random.State.make [| seed; 0 |]) a;
  Array.to_list (Array.sub a 0 working_set)

type env = {
  sync : Sync.t;
  svc : Service.t;
  conns : Client.t array;
  texts : string array;      (* every distinct command text *)
  seqs : int array array;    (* per connection: indices into [texts] *)
}

(* The mix follows the repository's own clients. Their traffic comes in
   two kinds of session:
   - a request pair: request_component for a spec, then instance_query
     on the instance it returned, asking for the figures the explore
     driver's Remote backend asks for (lib/explore/driver.ml fetches
     every point this way; lib/hls/schedule.ml, in-process, likewise
     reads each unit's delays once, right after requesting it);
   - a catalog lookup: function_query, then component_query on one
     component.
   Two request pairs per lookup make function_query half as frequent as
   request_component, as in bench E18's serve mix (request,
   function_query, request). No client in the repository issues
   component_query; one per function_query is an assumption.

   The texts depend on the instance ids the working set was given, so
   they are built after generation; ids are deterministic per seed. *)
let command_texts seed ids =
  let requests = List.map Ax.point_cql (working_points seed) in
  let instances =
    List.map
      (fun id ->
        Printf.sprintf
          "command:instance_query; instance:%s; area_value:?r; delay_value:?r; \
           gates:?d; constraints_met:?s; degraded:?s"
          id)
      ids
  in
  let fqs =
    List.map
      (fun f -> Printf.sprintf "command:function_query; function:(%s); component:?s[]" f)
      functions
  in
  let cqs =
    List.map
      (fun c -> Printf.sprintf "command:component_query; component:%s; function:?s[]" c)
      components
  in
  Array.of_list (requests @ instances @ fqs @ cqs)

let pairs_per_lookup = 2

(* Per connection, a seeded sequence of text indices: sessions drawn
   one after another, each a request pair with probability
   [pairs_per_lookup] in [pairs_per_lookup + 1], else a catalog lookup,
   with the spec, function and component drawn uniformly. *)
let sequences seed =
  let nf = List.length functions and nc = List.length components in
  Array.init clients (fun c ->
      let rng = Random.State.make [| seed; 1 + c |] in
      let seq = Array.make sequence_length 0 in
      let n = ref 0 in
      let emit k =
        if !n < sequence_length then begin
          seq.(!n) <- k;
          incr n
        end
      in
      while !n < sequence_length do
        if Random.State.int rng (pairs_per_lookup + 1) < pairs_per_lookup then begin
          let i = Random.State.int rng working_set in
          emit i;
          emit (working_set + i)
        end
        else begin
          emit ((2 * working_set) + Random.State.int rng nf);
          emit ((2 * working_set) + nf + Random.State.int rng nc)
        end
      done;
      seq)

let setup seed () =
  let server = Server.create ~workspace:(fresh_dir "serve-ws") () in
  let ids =
    List.map
      (fun p -> Exec.get_string (Exec.run server (Ax.point_cql p)) "instance")
      (working_points seed)
  in
  let sync = Sync.wrap server in
  let svc = Service.start ~config:{ Service.default_config with port = 0 } sync in
  let conns =
    Array.init clients (fun _ -> Client.connect ~port:(Service.port svc) ())
  in
  { sync; svc; conns; texts = command_texts seed ids; seqs = sequences seed }

let dispose env =
  Array.iter Client.close env.conns;
  Service.shutdown env.svc

(* ------------------------------------------------------------------ *)
(* The closed loop                                                     *)
(* ------------------------------------------------------------------ *)

(* One connection's record. Each reply is compared with the in-process
   answer to the same text after its round trip is timed, outside the
   measured interval; only the first [min_ops] replies are kept, for
   the output digest. *)
type record = {
  samples : Samples.t;
  mutable mismatches : int;
  mutable examples : string list;
  head : (string * Exec.result) list array;
}

let render reply =
  String.concat "; "
    (List.map
       (fun (k, v) ->
         k ^ "="
         ^
         match v with
         | Exec.Rstr s -> s
         | Exec.Rint i -> string_of_int i
         | Exec.Rfloat f -> Printf.sprintf "%h" f
         | Exec.Rstrs l -> "[" ^ String.concat "," l ^ "]")
       reply)

(* The in-process answer to every distinct text. *)
let expected env =
  Sync.with_server env.sync (fun server ->
      Array.map (fun text -> Exec.run server text) env.texts)

let drive env ~want ~trace_id ~deadline c =
  let r =
    { samples = Samples.create (); mismatches = 0; examples = [];
      head = Array.make min_ops [] }
  in
  let conn = env.conns.(c) and seq = env.seqs.(c) in
  let mismatch k got =
    r.mismatches <- r.mismatches + 1;
    if List.length r.examples < 5 then
      r.examples <-
        Printf.sprintf "connection %d: %S answered %s, in-process %s" c env.texts.(k)
          got (render want.(k))
        :: r.examples
  in
  while now () < deadline do
    let n = r.samples.Samples.n in
    let k = seq.(n mod sequence_length) in
    let t0 = now () in
    let res = Client.exec conn ?trace_id env.texts.(k) in
    let t1 = now () in
    Samples.add r.samples ~t_end:t1 ~lat:(t1 -. t0);
    match res with
    | Ok reply ->
        if n < min_ops then r.head.(n) <- reply;
        if reply <> want.(k) then mismatch k (render reply)
    | Error (code, msg) ->
        mismatch k (Printf.sprintf "error %s: %s" (Wire.error_code_to_string code) msg)
  done;
  r

type phase = { records : record array; t0 : float; wall : float; queue_max : int }

let block_s = 1.0

let measure env ~seconds ~traced =
  let want = expected env in
  let t0 = now () in
  let deadline = t0 +. seconds in
  let records = Array.make clients None in
  let queue_max = ref 0 in
  let sampler =
    if traced then
      Some
        (Thread.create
           (fun () ->
             while now () < deadline do
               queue_max := max !queue_max (Service.queue_depth env.svc);
               Thread.delay 0.001
             done)
           ())
    else None
  in
  let threads =
    List.init clients (fun c ->
        Thread.create
          (fun () ->
            let trace_id = if traced then Some (Printf.sprintf "perfbench-%d" c) else None in
            records.(c) <- Some (drive env ~want ~trace_id ~deadline c))
          ())
  in
  List.iter Thread.join threads;
  Option.iter Thread.join sampler;
  let wall = now () -. t0 in
  { records = Array.map Option.get records; t0; wall; queue_max = !queue_max }

let samples ph = Array.to_list (Array.map (fun r -> r.samples) ph.records)

let blocks ph =
  Samples.slices (samples ph) ~t0:ph.t0 ~wall:ph.wall ~block_s
  |> List.map (fun l -> block ~ops:(List.length l) ~wall:block_s l)

let ops ph = Array.fold_left (fun a r -> a + r.samples.Samples.n) 0 ph.records

(* ------------------------------------------------------------------ *)
(* Correctness                                                         *)
(* ------------------------------------------------------------------ *)

let check env ph =
  let want = expected env in
  let out = digest () in
  let r0 = ph.records.(0) in
  for i = 0 to r0.samples.Samples.n - 1 do
    (* past the kept head, every reply was found equal to its expected
       answer, or counted as a mismatch *)
    digest_add out
      (render (if i < min_ops then r0.head.(i) else want.(env.seqs.(0).(i mod sequence_length))))
  done;
  digest_print "serve_hot connection-0 output" out;
  ( Array.fold_left (fun a r -> a + r.mismatches) 0 ph.records,
    List.concat_map (fun r -> List.rev r.examples) (Array.to_list ph.records) )

(* ------------------------------------------------------------------ *)
(* Per-layer figures                                                   *)
(* ------------------------------------------------------------------ *)

let layers env ph ~untraced_ops_per_s ~request_spans ~cache =
  let n = ops ph in
  let sample =
    List.init (min n 2000) (fun i -> env.texts.(env.seqs.(0).(i mod sequence_length)))
  in
  let parse_s = time_per_call sample Icdb_cql.Command.parse in
  let exec_s =
    time_per_call sample (fun text ->
        Sync.with_server env.sync (fun server -> Exec.run server text))
  in
  let want = expected env in
  let frames =
    List.init (min n 2000) (fun i ->
        let k = env.seqs.(0).(i mod sequence_length) in
        let resp =
          Wire.encode_response { Wire.id = i; body = Wire.Results want.(k) }
        in
        ( { Wire.id = i; body = Wire.Cql { text = env.texts.(k); args = [] } },
          String.sub resp 4 (String.length resp - 4) ))
  in
  let codec_s =
    time_per_call frames (fun (req, resp) ->
        ignore (Wire.encode_request req);
        Wire.decode_response resp)
  in
  let count, sum = request_spans in
  let server_s = ratio sum (float_of_int count) in
  let all = Samples.lats (samples ph) in
  let lat = summarize all in
  let rtt_sum = List.fold_left ( +. ) 0.0 all in
  let hits, lookups = cache in
  let us s = s *. 1e6 in
  [ ("cql.parse_us", us parse_s, "us");
    ("cql.exec_us", us exec_s, "us");
    ("net.codec_us", us codec_s, "us");
    ("net.server_request_us", us server_s, "us");
    ("net.rtt_p50_us", us lat.p50, "us");
    ("net.unexplained_us", us (lat.p50 -. codec_s -. server_s), "us");
    ("core.cache_hit_ratio", ratio (float_of_int hits) (float_of_int lookups), "ratio");
    ("net.queue_depth_max", float_of_int ph.queue_max, "count");
    ( "serve_hot.unattributed_share",
      ratio (rtt_sum -. (float_of_int n *. codec_s) -. sum) rtt_sum,
      "ratio" );
    ( "serve_hot.trace_ops_ratio",
      ratio (float_of_int n /. ph.wall) untraced_ops_per_s,
      "ratio" ) ]

(* ------------------------------------------------------------------ *)

let cache_counts env =
  Sync.with_server env.sync (fun server ->
      let st = Server.stats server in
      (st.Server.st_hits, st.Server.st_hits + st.Server.st_reuse_hits + st.Server.st_misses))

let run (opts : opts) =
  let setup = setup opts.seed in
  (* set-up is timed three times before the measured phase and four
     times after it: on a shared two-vCPU virtual machine, the CPU's
     speed swung for seconds at a time, and set-ups taken in one burst
     all fell in one swing *)
  let before, env = setups ~n:3 ~setup ~dispose in
  print_input_digest "serve_hot"
    (Array.to_list env.texts
    @ Array.to_list
        (Array.map (fun s -> String.concat "," (Array.to_list (Array.map string_of_int s)))
           env.seqs));
  let ph = measure env ~seconds:opts.seconds ~traced:false in
  let heap_mb = heap_peak_mb () in
  let bl = blocks ph in
  report_latency "serve_hot round trip" bl;
  Printf.printf "serve_hot: %d replies in %.2f s over %d connections\n" (ops ph) ph.wall
    clients;
  let failed, problems = check env ph in
  let base = { attempted = ops ph; failed; problems; e2e = []; layers = [] } in
  let result =
    if not opts.trace then base
    else begin
      enable_tracing ();
      let h0, l0 = cache_counts env in
      let tph, delta =
        span_delta [ "net.request" ] (fun () ->
            measure env ~seconds:opts.seconds ~traced:true)
      in
      Trace.set_enabled false;
      let h1, l1 = cache_counts env in
      let tfailed, tproblems = check env tph in
      (* a request that missed the cache ran generation, and the phase
         no longer measures the hot path *)
      let cold =
        if h1 - h0 < l1 - l0 then
          [ Printf.sprintf "traced phase: %d of %d requests missed the cache"
              (l1 - l0 - (h1 - h0)) (l1 - l0) ]
        else []
      in
      { attempted = base.attempted + ops tph;
        failed = base.failed + tfailed;
        problems = base.problems @ tproblems @ cold;
        e2e = [];
        layers =
          layers env tph
            ~untraced_ops_per_s:(float_of_int (ops ph) /. ph.wall)
            ~request_spans:(List.assoc "net.request" delta)
            ~cache:(h1 - h0, l1 - l0) }
    end
  in
  dispose env;
  let after, last = setups ~n:4 ~setup ~dispose in
  dispose last;
  { result with
    e2e = e2e_metrics ~blocks:bl ~setup:(median (before @ after)) ~heap_mb }
