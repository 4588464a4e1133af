(* Structured error taxonomy for the generation pipeline (Figure 8).

   Every failure inside the server is classified so callers can react
   sensibly instead of aborting the whole request:

   - [Transient]     momentary conditions (interrupted I/O, injected
                     flakiness) — worth a bounded retry;
   - [Corrupt]       stored data failed a checksum or re-verification —
                     never retried, the damaged artifact is dropped;
   - [Invalid_input] the request itself is wrong (bad attributes,
                     unparsable IIF) — reported straight back;
   - [Resource]      the environment refused (disk full, permissions) —
                     not retried, surfaced with context. *)

type kind = Transient | Corrupt | Invalid_input | Resource

exception Fault of kind * string

let kind_to_string = function
  | Transient -> "transient"
  | Corrupt -> "corrupt"
  | Invalid_input -> "invalid input"
  | Resource -> "resource"

let fault kind fmt =
  Printf.ksprintf (fun s -> raise (Fault (kind, s))) fmt

(* Bounded retry for transient faults only: every other exception
   propagates on the first throw. [on_retry] (attempt number, message)
   lets callers log the degradation trail. *)
let with_retry ?(attempts = 3) ?(on_retry = fun _ _ -> ()) f =
  let rec go attempt =
    try f ()
    with Fault (Transient, msg) when attempt < attempts ->
      on_retry attempt msg;
      go (attempt + 1)
  in
  go 1
