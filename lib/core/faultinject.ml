(* Deterministic fault injection for the crash-recovery and degradation
   tests.

   The server calls [hit site] at each dangerous point of the
   generation pipeline; an armed site counts hits and, at the configured
   one, either raises a classified [Fault.Fault] (exercising the retry
   and degradation paths) or raises [Crash] (simulating the process
   dying mid-operation — tests catch it, abandon the server value, and
   assert that [Server.reopen] restores a consistent state).

   Sites can be armed programmatically ([arm], [reset]) or through the
   ICDB_FAULT environment variable, e.g.

     ICDB_FAULT="file_write:crash:2"        crash on the 2nd file write
     ICDB_FAULT="sizing:transient:1;expand:crash:1"

   so CI can run the whole suite under injection without code changes. *)

type site =
  | File_write       (* between temp-file write and atomic rename *)
  | Journal_append   (* before a journal record reaches the log *)
  | Expand           (* IIF expansion *)
  | Techmap          (* generator synthesis (optimization + mapping) *)
  | Sizing           (* transistor sizing *)
  | Journal_stream   (* journal tail-read serving a replication batch *)
  | Repl_replay      (* follower applying one shipped journal record *)
  | Loop_stall       (* top of a service event-loop tick; armed hits
                        become sleeps, wedging the loop for the stall
                        watchdog tests *)

type mode =
  | Fail of int * Fault.kind  (* first n hits raise Fault (kind, _) *)
  | Crash_on of int           (* the nth hit raises Crash *)

exception Crash of site

let site_to_string = function
  | File_write -> "file_write"
  | Journal_append -> "journal_append"
  | Expand -> "expand"
  | Techmap -> "techmap"
  | Sizing -> "sizing"
  | Journal_stream -> "journal_stream"
  | Repl_replay -> "repl_replay"
  | Loop_stall -> "loop_stall"

let site_of_string = function
  | "file_write" -> Some File_write
  | "journal_append" -> Some Journal_append
  | "expand" -> Some Expand
  | "techmap" -> Some Techmap
  | "sizing" -> Some Sizing
  | "journal_stream" -> Some Journal_stream
  | "repl_replay" -> Some Repl_replay
  | "loop_stall" -> Some Loop_stall
  | _ -> None

let armed : (site, mode * int ref) Hashtbl.t = Hashtbl.create 8

let arm site mode = Hashtbl.replace armed site (mode, ref 0)

let reset () = Hashtbl.reset armed

let hits site =
  match Hashtbl.find_opt armed site with
  | Some (_, count) -> !count
  | None -> 0

let hit site =
  match Hashtbl.find_opt armed site with
  | None -> ()
  | Some (mode, count) ->
      incr count;
      (match mode with
       | Fail (times, kind) when !count <= times ->
           Fault.fault kind "injected %s fault at %s (hit %d)"
             (Fault.kind_to_string kind) (site_to_string site) !count
       | Crash_on n when !count = n -> raise (Crash site)
       | Fail _ | Crash_on _ -> ())

(* "site:mode:n[;site:mode:n...]" — mode is "crash" or a fault kind. *)
let arm_from_spec spec =
  String.split_on_char ';' spec
  |> List.iter (fun clause ->
         let clause = String.trim clause in
         if clause <> "" then
           match String.split_on_char ':' clause with
           | [ s; m; n ] -> (
               let site =
                 match site_of_string (String.trim s) with
                 | Some site -> site
                 | None -> invalid_arg ("ICDB_FAULT: unknown site " ^ s)
               in
               let n =
                 match int_of_string_opt (String.trim n) with
                 | Some n when n >= 1 -> n
                 | _ -> invalid_arg ("ICDB_FAULT: bad hit count " ^ n)
               in
               match String.trim m with
               | "crash" -> arm site (Crash_on n)
               | "transient" -> arm site (Fail (n, Fault.Transient))
               | "corrupt" -> arm site (Fail (n, Fault.Corrupt))
               | "invalid" -> arm site (Fail (n, Fault.Invalid_input))
               | "resource" -> arm site (Fail (n, Fault.Resource))
               | m -> invalid_arg ("ICDB_FAULT: unknown mode " ^ m))
           | _ ->
               invalid_arg
                 ("ICDB_FAULT: expected site:mode:n, got " ^ clause))

let init_from_env () =
  match Sys.getenv_opt "ICDB_FAULT" with
  | Some spec when String.trim spec <> "" -> arm_from_spec spec
  | _ -> ()
