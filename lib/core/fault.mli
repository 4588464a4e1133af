(** Structured error taxonomy for the generation pipeline (Figure 8).

    Failures inside the server are classified so the pipeline can retry
    what is retryable, drop what is damaged, and report what is simply
    wrong — instead of aborting every request the same way. *)

type kind =
  | Transient      (** momentary — worth a bounded retry *)
  | Corrupt        (** stored data failed checksum/re-verification *)
  | Invalid_input  (** the request itself is wrong *)
  | Resource       (** the environment refused (disk, permissions) *)

exception Fault of kind * string

val kind_to_string : kind -> string

val fault : kind -> ('a, unit, string, 'b) format4 -> 'a
(** [fault kind fmt ...] raises {!Fault}. *)

val with_retry :
  ?attempts:int -> ?on_retry:(int -> string -> unit) -> (unit -> 'a) -> 'a
(** Run [f], retrying up to [attempts] total tries as long as it raises
    [Fault (Transient, _)]. Any other exception — and the final
    transient failure — propagates. [on_retry] receives the attempt
    number just failed and the fault message. *)
