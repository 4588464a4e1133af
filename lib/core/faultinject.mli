(** Deterministic fault injection for crash-recovery and degradation
    testing.

    The server calls {!hit} at each dangerous point; an armed site
    counts hits and at the configured one raises either a classified
    {!Fault.Fault} (exercising retry/degradation) or {!Crash}
    (simulating the process dying mid-operation). All state is global
    and deterministic: the same arming and workload produce the same
    failure, every run. *)

type site =
  | File_write      (** between temp-file write and atomic rename *)
  | Journal_append  (** before a journal record reaches the log *)
  | Expand          (** IIF expansion *)
  | Techmap         (** generator synthesis (optimization + mapping) *)
  | Sizing          (** transistor sizing *)
  | Journal_stream  (** journal tail-read serving a replication batch *)
  | Repl_replay     (** follower applying one shipped journal record *)
  | Loop_stall      (** top of a service event-loop tick — armed [Fail]
                        hits make the loop thread sleep instead of
                        raising, simulating a wedged loop for the stall
                        watchdog *)

type mode =
  | Fail of int * Fault.kind  (** first [n] hits raise [Fault (kind, _)] *)
  | Crash_on of int           (** the [n]th hit raises {!Crash} *)

exception Crash of site

val site_to_string : site -> string
val site_of_string : string -> site option

val arm : site -> mode -> unit
(** Arm a site, resetting its hit counter. *)

val reset : unit -> unit
(** Disarm every site. *)

val hits : site -> int
(** Hits recorded at an armed site (0 when disarmed). *)

val hit : site -> unit
(** Called by the server at each injection point. *)

val arm_from_spec : string -> unit
(** Arm sites from a ["site:mode:n[;...]"] spec — mode is [crash],
    [transient], [corrupt], [invalid] or [resource].
    @raise Invalid_argument on a malformed spec. *)

val init_from_env : unit -> unit
(** {!arm_from_spec} on [$ICDB_FAULT], when set and non-empty. *)
