(* Always-on flight recorder: the daemon's black box.

   Holds a bounded ring of recent structured events (captured via an
   {!Event} sink), a reference to the telemetry sampler (last-K series
   samples), and provider callbacks for live tables (the per-connection
   table, arbitrary metadata). [to_json] assembles a post-mortem dump;
   [dump] writes it atomically. The CLI wires dumps to fatal exits,
   SIGQUIT, and the `/blackboxz` admin endpoint (`icdb blackbox`).

   Capture is cheap — one mutex, one array write per event — and the
   ring only sees events that pass the current {!Event} threshold, so
   a daemon running at the default [Info] level records info and up.
   Everything else (JSON assembly, table polling) happens only at dump
   time, which is allowed to be expensive: the process is dying or an
   operator asked. *)

type t = {
  lock : Mutex.t;               (* guards [events] and the fields below *)
  events : string Ring.t;       (* rendered logfmt lines *)
  mutable sink_id : int option; (* our Event sink registration *)
  mutable sampler : Series.t option;
  mutable series_last : int;    (* samples per series to include *)
  (* named table providers, registration order; each poll returns rows
     of (column, value) pairs *)
  mutable tables : (string * (unit -> (string * string) list list)) list;
  mutable meta : (string * string) list;
  started_at : float;
}

let create ?(cap = 1024) () =
  let t =
    { lock = Mutex.create ();
      events = Ring.create cap;
      sink_id = None;
      sampler = None;
      series_last = 120;
      tables = [];
      meta = [];
      started_at = Unix.gettimeofday () }
  in
  let sink e =
    let line = Event.render e in
    Mutex.lock t.lock;
    Ring.push t.events line;
    Mutex.unlock t.lock
  in
  t.sink_id <- Some (Event.add_sink sink);
  t

let close t =
  match t.sink_id with
  | Some id ->
      Event.remove_sink id;
      t.sink_id <- None
  | None -> ()

let set_sampler ?(last = 120) t sampler =
  Mutex.lock t.lock;
  t.sampler <- Some sampler;
  t.series_last <- last;
  Mutex.unlock t.lock

let add_table t name poll =
  Mutex.lock t.lock;
  t.tables <- t.tables @ [ (name, poll) ];
  Mutex.unlock t.lock

let set_meta t kvs =
  Mutex.lock t.lock;
  t.meta <- kvs;
  Mutex.unlock t.lock

let event_count t =
  Mutex.lock t.lock;
  let n = Ring.length t.events in
  Mutex.unlock t.lock;
  n

(* Captured events oldest-first. *)
let events t =
  Mutex.lock t.lock;
  let out = Ring.to_list t.events in
  Mutex.unlock t.lock;
  out

let to_json ?(reason = "requested") t =
  let now = Unix.gettimeofday () in
  Mutex.lock t.lock;
  let sampler = t.sampler
  and series_last = t.series_last
  and tables = t.tables
  and meta = t.meta
  and captured = Ring.total t.events
  and lines = Ring.to_list t.events in
  Mutex.unlock t.lock;
  let table_json (name, poll) =
    let rows = try poll () with _ -> [] in
    ( name,
      Json.List
        (List.map
           (fun row ->
             Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) row))
           rows) )
  in
  Json.Obj
    ([ ("blackbox", Json.Str "icdb");
       ("reason", Json.Str reason);
       ("dumped_at", Json.float ~prec:3 now);
       ("recorder_started_at", Json.float ~prec:3 t.started_at);
       ("meta", Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) meta));
       ( "events",
         Json.Obj
           [ ("captured", Json.Int captured);
             ("retained", Json.Int (List.length lines));
             ("lines", Json.List (List.map (fun l -> Json.Str l) lines)) ] );
       ( "series",
         match sampler with
         | None -> Json.Null
         | Some s -> Series.to_json ~last:series_last s ) ]
    @ List.map table_json tables)

(* Atomic dump (tmp + rename): a crash mid-dump never leaves a
   truncated file where a previous good dump stood. *)
let dump ?reason t ~path = Json.write ~path (to_json ?reason t)
