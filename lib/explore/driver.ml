(* Sweep execution: walk a lattice of request points against a local
   server or a remote daemon, persisting every completed point into the
   exploration store as it lands. Resume-safe by construction: points
   whose spec key is already persisted are skipped, so kill-and-rerun
   only pays for unfinished work. *)

module Event = Icdb_obs.Event
module Metrics = Icdb_obs.Metrics

exception Driver_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Driver_error s)) fmt

type backend =
  | Local of Icdb.Server.t
  | Remote of { client : Icdb_net.Client.t; batch : int; inflight : int }

type progress = {
  pr_total : int;     (* points in the sweep *)
  pr_done : int;      (* executed or failed, this run *)
  pr_skipped : int;   (* already persisted (or duplicate key) *)
  pr_failed : int;
  pr_eta_s : float option;
}

type failure = { f_point : Axis.point; f_reason : string }

type summary = {
  s_total : int;
  s_executed : int;
  s_skipped : int;
  s_failures : failure list;
}

let c_executed = lazy (Metrics.counter "explore.points.executed")
let c_skipped = lazy (Metrics.counter "explore.points.skipped")
let c_failed = lazy (Metrics.counter "explore.points.failed")

let now () = Unix.gettimeofday ()

(* ------------------------------------------------------------------ *)
(* Shared bookkeeping                                                  *)
(* ------------------------------------------------------------------ *)

type run_state = {
  store : Store.t;
  sweep : string;
  total : int;
  to_run : int;              (* points this run will execute *)
  started : float;
  mutable done_ : int;
  mutable skipped : int;
  mutable failures : failure list;
  on_progress : (progress -> unit) option;
}

let report st =
  match st.on_progress with
  | None -> ()
  | Some f ->
      let eta =
        if st.done_ = 0 then None
        else
          let elapsed = now () -. st.started in
          let remaining = st.to_run - st.done_ in
          Some (elapsed /. float_of_int st.done_ *. float_of_int remaining)
      in
      f
        { pr_total = st.total;
          pr_done = st.done_;
          pr_skipped = st.skipped;
          pr_failed = List.length st.failures;
          pr_eta_s = eta }

let record_result st r =
  Store.add st.store ~sweep:st.sweep r;
  st.done_ <- st.done_ + 1;
  Metrics.incr (Lazy.force c_executed);
  report st

let record_failure st p reason =
  st.failures <- { f_point = p; f_reason = reason } :: st.failures;
  st.done_ <- st.done_ + 1;
  Metrics.incr (Lazy.force c_failed);
  Event.warn "explore: point failed: %s: %s" (Axis.point_to_string p) reason;
  report st

(* ------------------------------------------------------------------ *)
(* Local backend                                                       *)
(* ------------------------------------------------------------------ *)

let exec_local server ~power p =
  let t0 = now () in
  let res = Icdb_cql.Exec.run server (Axis.point_cql p) in
  let id = Icdb_cql.Exec.get_string res "instance" in
  let cache = Icdb_cql.Exec.get_string res "cache" in
  let degraded = Icdb_cql.Exec.get_string res "degraded" = "yes" in
  let inst = Icdb.Server.find_instance server id in
  let pw =
    if power then
      (Lazy.force inst.Icdb.Instance.power).Icdb_timing.Power.dynamic_mw
    else 0.0
  in
  { Store.r_point = p;
    r_instance = id;
    r_area = Icdb.Instance.best_area inst;
    r_delay = Icdb.Instance.worst_delay inst;
    r_power = pw;
    r_gates = Icdb.Instance.gate_count inst;
    r_cache = cache;
    r_latency_s = now () -. t0;
    r_degraded = degraded;
    r_constraints_met = inst.Icdb.Instance.constraints_met }

(* One span per point, so that a traced sweep attributes the driver's
   own work too: the CQL parse, reading the figures back and the store
   insert. *)
let run_local st server ~power pending =
  List.iter
    (fun p ->
      Icdb_obs.Trace.with_span "explore.point" @@ fun () ->
      match exec_local server ~power p with
      | r -> record_result st r
      | exception
          (( Icdb.Server.Icdb_error _ | Icdb_cql.Exec.Cql_error _
           | Icdb_timing.Sta.Timing_error _ ) as e) ->
          record_failure st p (Printexc.to_string e))
    pending

(* ------------------------------------------------------------------ *)
(* Remote backend: pipelined wire-v4 batches                           *)
(* ------------------------------------------------------------------ *)

(* Each chunk of points takes two batch round trips: one Batch of
   request_component entries, then one Batch of instance_query entries
   fetching the figures of the instances stage one produced. Up to
   [inflight] batch frames ride the connection at once
   (Client.call_async), so the server's worker pool stays busy while
   replies stream back. Per-point latency is the chunk's wall time
   divided by its size — amortized, as batching intends. *)

let instance_query_cql ~power =
  "command:instance_query; instance:%s; area_value:?r; delay_value:?r; \
   gates:?d; constraints_met:?s; degraded:?s"
  ^ (if power then "; power_value:?r" else "")

type stage_b_meta = {
  m_point : Axis.point;
  m_instance : string;
  m_cache : string;
  m_degraded : bool;
}

type outstanding =
  | Stage_a of Icdb_net.Client.ticket * Axis.point list * float
  | Stage_b of Icdb_net.Client.ticket * stage_b_meta list * float * int
      (* sent time of stage A, original chunk size (for amortization) *)

let get_result results key =
  match List.assoc_opt key results with
  | Some r -> r
  | None -> fail "remote reply is missing %s" key

let get_str results key =
  match get_result results key with
  | Icdb_cql.Exec.Rstr s -> s
  | _ -> fail "remote reply: %s is not a string" key

let get_num results key =
  match get_result results key with
  | Icdb_cql.Exec.Rfloat f -> f
  | Icdb_cql.Exec.Rint i -> float_of_int i
  | _ -> fail "remote reply: %s is not numeric" key

(* Deep pipelining has a failure mode the local path doesn't: the
   service deadlines every request at enqueue (min of the client's
   timeout and the server's request_timeout_s), so a frame of expensive
   cold points — or a frame queued behind several inflight ones — can
   blow its deadline before some entries even run. Those per-entry
   Timeout errors are retryable by construction (finished work is
   cached server-side), so the driver collects them and reruns each in
   its own single-entry frame with a fresh deadline; only a point that
   times out alone is a real failure. *)
let rec run_remote st client ~power ~batch ~inflight ~retrying pending =
  let chunks = Queue.create () in
  let rec chop = function
    | [] -> ()
    | l ->
        let rec take k acc = function
          | rest when k = 0 -> (List.rev acc, rest)
          | [] -> (List.rev acc, [])
          | x :: rest -> take (k - 1) (x :: acc) rest
        in
        let chunk, rest = take batch [] l in
        Queue.push chunk chunks;
        chop rest
  in
  chop pending;
  let outstanding = Queue.create () in
  let send_stage_a chunk =
    let entries =
      List.map
        (fun p -> Icdb_net.Wire.Bcql { text = Axis.point_cql p; args = [] })
        chunk
    in
    let ticket = Icdb_net.Client.call_async client (Icdb_net.Wire.Batch entries) in
    Queue.push (Stage_a (ticket, chunk, now ())) outstanding
  in
  let send_stage_b metas t0 chunk_size =
    let entries =
      List.map
        (fun m ->
          Icdb_net.Wire.Bcql
            { text = instance_query_cql ~power;
              args = [ Icdb_cql.Exec.Astr m.m_instance ] })
        metas
    in
    let ticket = Icdb_net.Client.call_async client (Icdb_net.Wire.Batch entries) in
    Queue.push (Stage_b (ticket, metas, t0, chunk_size)) outstanding
  in
  let batch_reply ticket =
    match Icdb_net.Client.await client ticket with
    | Icdb_net.Wire.Batch_reply results -> Ok results
    | Icdb_net.Wire.Error { code; message } ->
        Error
          ( code,
            Printf.sprintf "batch refused: %s: %s"
              (Icdb_net.Wire.error_code_to_string code) message )
    | _ -> fail "remote sent an unexpected reply to a batch"
  in
  let retry = ref [] in
  let retryable code = (not retrying) && code = Icdb_net.Wire.Timeout in
  let entry_failed p code message =
    if retryable code then retry := p :: !retry
    else
      record_failure st p
        (Printf.sprintf "%s: %s"
           (Icdb_net.Wire.error_code_to_string code) message)
  in
  let fill_window () =
    while
      Queue.length outstanding < inflight && not (Queue.is_empty chunks)
    do
      send_stage_a (Queue.pop chunks)
    done
  in
  fill_window ();
  while not (Queue.is_empty outstanding) do
    (match Queue.pop outstanding with
    | Stage_a (ticket, chunk, t0) -> (
        match batch_reply ticket with
        | Error (code, reason) ->
            List.iter (fun p -> entry_failed p code reason) chunk
        | Ok results ->
            if List.length results <> List.length chunk then
              fail "remote batch reply arity mismatch";
            let metas =
              List.filter_map
                (fun (p, res) ->
                  match res with
                  | Icdb_net.Wire.Berror { code; message } ->
                      entry_failed p code message;
                      None
                  | Icdb_net.Wire.Bresults r ->
                      Some
                        { m_point = p;
                          m_instance = get_str r "instance";
                          m_cache = get_str r "cache";
                          m_degraded = get_str r "degraded" = "yes" }
                  | Icdb_net.Wire.Bsql_result _ ->
                      fail "remote answered CQL with a SQL result")
                (List.combine chunk results)
            in
            if metas <> [] then send_stage_b metas t0 (List.length chunk))
    | Stage_b (ticket, metas, t0, chunk_size) -> (
        match batch_reply ticket with
        | Error (code, reason) ->
            List.iter (fun m -> entry_failed m.m_point code reason) metas
        | Ok results ->
            if List.length results <> List.length metas then
              fail "remote batch reply arity mismatch";
            let latency = (now () -. t0) /. float_of_int (max 1 chunk_size) in
            List.iter2
              (fun m res ->
                match res with
                | Icdb_net.Wire.Berror { code; message } ->
                    entry_failed m.m_point code message
                | Icdb_net.Wire.Bresults r ->
                    record_result st
                      { Store.r_point = m.m_point;
                        r_instance = m.m_instance;
                        r_area = get_num r "area_value";
                        r_delay = get_num r "delay_value";
                        r_power = (if power then get_num r "power_value" else 0.0);
                        r_gates = int_of_float (get_num r "gates");
                        r_cache = m.m_cache;
                        r_latency_s = latency;
                        r_degraded = m.m_degraded;
                        r_constraints_met =
                          get_str r "constraints_met" = "yes" }
                | Icdb_net.Wire.Bsql_result _ ->
                    fail "remote answered CQL with a SQL result")
              metas results));
    fill_window ()
  done;
  if !retry <> [] then begin
    let pts = List.rev !retry in
    Event.info
      "explore: retrying %d timed-out points in single-entry frames"
      (List.length pts);
    run_remote st client ~power ~batch:1 ~inflight:1 ~retrying:true pts
  end

(* ------------------------------------------------------------------ *)
(* Entry point                                                         *)
(* ------------------------------------------------------------------ *)

let run ?(power = false) ?limit ?on_progress ~sweep backend store points =
  let total = List.length points in
  let persisted = Store.persisted_keys store ~sweep in
  (* In-run dedup on top of the resume set: distinct lattice points can
     canonicalize to the same spec. *)
  let seen = Hashtbl.copy persisted in
  let skipped = ref 0 in
  let pending =
    List.filter
      (fun p ->
        let key = Axis.point_key p in
        if Hashtbl.mem seen key then begin
          incr skipped;
          false
        end
        else begin
          Hashtbl.replace seen key ();
          true
        end)
      points
  in
  let pending =
    match limit with
    | None -> pending
    | Some n ->
        let rec take k = function
          | [] -> []
          | _ when k <= 0 -> []
          | x :: rest -> x :: take (k - 1) rest
        in
        take n pending
  in
  let st =
    { store;
      sweep;
      total;
      to_run = List.length pending;
      started = now ();
      done_ = 0;
      skipped = !skipped;
      failures = [];
      on_progress }
  in
  Metrics.incr ~by:!skipped (Lazy.force c_skipped);
  Event.info "explore: sweep %s: %d points, %d already persisted, running %d"
    sweep total !skipped st.to_run;
  report st;
  (match backend with
  | Local server -> run_local st server ~power pending
  | Remote { client; batch; inflight } ->
      if batch <= 0 then fail "batch size must be positive";
      if inflight <= 0 then fail "inflight window must be positive";
      run_remote st client ~power ~batch ~inflight ~retrying:false pending);
  Event.info "explore: sweep %s done: %d executed, %d skipped, %d failed"
    sweep
    (st.done_ - List.length st.failures)
    st.skipped (List.length st.failures);
  { s_total = total;
    s_executed = st.done_ - List.length st.failures;
    s_skipped = st.skipped;
    s_failures = List.rev st.failures }
