(* A bounded ring: keeps the last [capacity] values pushed and counts
   every value ever pushed. Every rolling log in the system — completed
   spans, the flight recorder's events, telemetry series, the slow-query
   log — is one of these, so the index arithmetic lives here and
   nowhere else.

   Storage is allocated on the first push, not at [create]: the span
   ring holds 65,536 slots, and a process that never traces should not
   carry it. After that first push, [push] writes preallocated storage
   only.

   Not thread-safe: owners shared across threads guard a ring with
   their own lock. *)

type 'a t = {
  mutable cap : int;
  mutable data : 'a array;  (* [||] until the first push *)
  mutable total : int;      (* values ever pushed *)
}

let check_cap n = if n <= 0 then invalid_arg "Ring: capacity must be positive"

let create cap =
  check_cap cap;
  { cap; data = [||]; total = 0 }

let capacity r = r.cap
let total r = r.total
let length r = min r.total r.cap

let push r v =
  if Array.length r.data = 0 then r.data <- Array.make r.cap v;
  r.data.(r.total mod r.cap) <- v;
  r.total <- r.total + 1

(* Forget every value and the count, and release the storage. *)
let clear r =
  r.data <- [||];
  r.total <- 0

let set_capacity r n =
  check_cap n;
  r.cap <- n;
  clear r

(* The retained values numbered [mark] and up (the first value pushed
   is number 0), oldest first — for [mark] taken from [total], what
   was pushed since. Values already evicted are silently absent. *)
let since r mark =
  let lo = max 0 (max mark (r.total - r.cap)) in
  List.init (max 0 (r.total - lo)) (fun i -> r.data.((lo + i) mod r.cap))

let to_list r = since r 0

let newest r =
  if r.total = 0 then None else Some r.data.((r.total - 1) mod r.cap)
