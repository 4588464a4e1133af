(* ICDB's benchmark: one workload per run, inputs generated from a seed,
   outputs checked, every metric printed by name with its unit. The
   last line of stdout is the run's result as one JSON object:

     {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

   With --trace 0 the metrics are the end-to-end ones, measured with
   tracing off; with --trace 1 they are the per-layer ones, from a
   traced phase that follows an untraced one. The process exits non-zero
   on any correctness mismatch. See README.md. *)

open Common

let workloads =
  [ ("sweep", Sweep.run); ("serve_hot", Serve_hot.run); ("frontier", Frontier.run) ]

(* Every per-layer metric, as BENCHMARK.json lists them. A workload
   reports the ones its layers produce; the rest are printed as 0,
   which is what those layers do on that workload. *)
let per_layer =
  [ ("timing.sta_calls_per_point", "1/point"); ("timing.sta_s", "s/point");
    ("timing.sta_share", "ratio"); ("timing.sizing_self_s", "s/point");
    ("logic.opt_s", "s/point"); ("logic.techmap_s", "s/point");
    ("iif.expand_s", "s/point"); ("layout.shape_s", "s/point");
    ("core.persist_s", "s/point"); ("reldb.journal_append_s", "s/point");
    ("core.memo_hit_ratio", "ratio"); ("sweep.unattributed_share", "ratio");
    ("sweep.trace_ops_ratio", "ratio"); ("sweep.evicted_spans", "count");
    ("cql.parse_us", "us"); ("cql.exec_us", "us"); ("net.codec_us", "us");
    ("net.server_request_us", "us"); ("net.rtt_p50_us", "us");
    ("net.unexplained_us", "us"); ("core.cache_hit_ratio", "ratio");
    ("net.queue_depth_max", "count"); ("serve_hot.unattributed_share", "ratio");
    ("serve_hot.trace_ops_ratio", "ratio");
    ("reldb.pareto_us", "us"); ("reldb.probe_us", "us"); ("reldb.scan_us", "us");
    ("reldb.insert_us", "us"); ("reldb.checkpoint_s", "s");
    ("reldb.rows_examined_per_row.pareto", "ratio");
    ("reldb.rows_examined_per_row.probe", "ratio");
    ("reldb.rows_examined_per_row.scan", "ratio");
    ("reldb.index_hits_per_op.spec_key", "1/op");
    ("reldb.index_hits_per_op.sweep", "1/op");
    ("reldb.index_hits_per_op.component", "1/op");
    ("reldb.journal_bytes_per_row", "B/row");
    ("frontier.unattributed_share", "ratio");
    ("frontier.trace_ops_ratio", "ratio") ]

let usage =
  "perfbench --workload (sweep|serve_hot|frontier) --seed N --seconds S \
   --trace (0|1)"

let json_number v =
  if not (Float.is_finite v) then failwith "non-finite metric value";
  Printf.sprintf "%.17g" v

let print_result ~correct (o : outcome) metrics =
  let fields =
    List.map
      (fun (name, v, unit) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v)
          unit)
      metrics
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct o.attempted o.failed (String.concat ", " fields)

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0 and trace = ref (-1) in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_int seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or per-layer metrics") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let run =
    match List.assoc_opt !workload workloads with
    | Some r when !seed >= 0 && !seconds > 0 && (!trace = 0 || !trace = 1) -> r
    | _ ->
        prerr_endline usage;
        exit 2
  in
  let trace = !trace = 1 in
  (* a traced run measures two phases, untraced then traced, and splits
     the measured time between them *)
  let seconds = float_of_int !seconds /. if trace then 2.0 else 1.0 in
  let opts = { seed = !seed; seconds; trace } in
  (* before any set-up, so that every file the program writes lands in
     the run's own directory *)
  ignore (Lazy.force tmp_root);
  let o = run opts in
  List.iter (fun p -> Printf.printf "MISMATCH: %s\n" p) o.problems;
  let correct = o.problems = [] && o.failed = 0 in
  Printf.printf "failed_ratio: %.6f (%d of %d operations)\n"
    (ratio (float_of_int o.failed) (float_of_int o.attempted))
    o.failed o.attempted;
  List.iter
    (fun (name, _, _) ->
      if not (List.mem_assoc name per_layer) then
        failwith ("per-layer metric missing from the list: " ^ name))
    o.layers;
  let metrics =
    if opts.trace then
      List.map
        (fun (name, unit) ->
          match List.find_opt (fun (n, _, _) -> n = name) o.layers with
          | Some m -> m
          | None -> (name, 0.0, unit))
        per_layer
    else o.e2e
  in
  List.iter
    (fun (name, v, unit) -> Printf.printf "  %-40s %14.6f %s\n" name v unit)
    metrics;
  print_result ~correct o metrics;
  exit (if correct then 0 else 1)
