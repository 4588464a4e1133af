(* Structured event log with severity levels and pluggable sinks.

   An event is a timestamped message plus key/value fields; sinks
   decide where it goes (stderr, a file, the flight recorder's ring).
   With no sink installed, or below the threshold level, emission is a
   couple of comparisons and no allocation — instrumented code can log
   unconditionally.

   The formatting variants ([debugf] .. [errorf]) run Printf before the
   level check, so guard hot paths with [enabled] or use the
   plain-string [emit]. *)

type level = Debug | Info | Warn | Error

let level_rank = function Debug -> 0 | Info -> 1 | Warn -> 2 | Error -> 3

let level_to_string = function
  | Debug -> "debug"
  | Info -> "info"
  | Warn -> "warn"
  | Error -> "error"

let level_of_string s =
  match String.lowercase_ascii s with
  | "debug" -> Some Debug
  | "info" -> Some Info
  | "warn" | "warning" -> Some Warn
  | "error" -> Some Error
  | _ -> None

type event = {
  ev_time : float;  (* Unix epoch seconds *)
  ev_level : level;
  ev_msg : string;
  ev_fields : (string * string) list;
}

type sink = event -> unit

let threshold = ref Warn
let set_level l = threshold := l
let level () = !threshold

let sinks : (int * sink) list ref = ref []
let next_sink_id = ref 0

let enabled l = level_rank l >= level_rank !threshold && !sinks <> []

let add_sink f =
  incr next_sink_id;
  sinks := (!next_sink_id, f) :: !sinks;
  !next_sink_id

let remove_sink id = sinks := List.filter (fun (i, _) -> i <> id) !sinks
let clear_sinks () = sinks := []

let emit lvl ?(fields = []) msg =
  if enabled lvl then begin
    let e =
      { ev_time = Unix.gettimeofday ();
        ev_level = lvl;
        ev_msg = msg;
        ev_fields = fields }
    in
    (* a broken sink must never take the pipeline down with it *)
    List.iter (fun (_, f) -> try f e with _ -> ()) !sinks
  end

let debug ?fields fmt = Printf.ksprintf (fun s -> emit Debug ?fields s) fmt
let info ?fields fmt = Printf.ksprintf (fun s -> emit Info ?fields s) fmt
let warn ?fields fmt = Printf.ksprintf (fun s -> emit Warn ?fields s) fmt
let error ?fields fmt = Printf.ksprintf (fun s -> emit Error ?fields s) fmt

(* ------------------------------------------------------------------ *)
(* Rendering and the built-in sinks                                    *)
(* ------------------------------------------------------------------ *)

let quote s =
  let buf = Buffer.create (String.length s + 2) in
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"';
  Buffer.contents buf

(* logfmt-style one-liner: ts=... level=... msg="..." key="value" ... *)
let render e =
  let tm = Unix.gmtime e.ev_time in
  let frac = e.ev_time -. Float.of_int (int_of_float e.ev_time) in
  let buf = Buffer.create 128 in
  Buffer.add_string buf
    (Printf.sprintf "ts=%04d-%02d-%02dT%02d:%02d:%02d.%03dZ level=%s msg=%s"
       (tm.Unix.tm_year + 1900) (tm.Unix.tm_mon + 1) tm.Unix.tm_mday
       tm.Unix.tm_hour tm.Unix.tm_min tm.Unix.tm_sec
       (int_of_float (frac *. 1000.0))
       (level_to_string e.ev_level)
       (quote e.ev_msg));
  List.iter
    (fun (k, v) ->
      Buffer.add_char buf ' ';
      Buffer.add_string buf k;
      Buffer.add_char buf '=';
      Buffer.add_string buf (quote v))
    e.ev_fields;
  Buffer.contents buf

let stderr_sink () e =
  output_string stderr (render e);
  output_char stderr '\n';
  flush stderr

(* Appends rendered events to [path]; the channel stays open for the
   process lifetime, flushed per event so a crash loses at most the
   event in flight. *)
let file_sink path =
  let oc = open_out_gen [ Open_append; Open_creat; Open_wronly ] 0o644 path in
  fun e ->
    output_string oc (render e);
    output_char oc '\n';
    flush oc
