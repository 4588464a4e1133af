(** Flat (nonparameterized) IIF: the expander's output and the logic
    synthesizer's input. All indices are concrete, programming
    structures unrolled and subfunctions inlined; nets are plain
    strings like "Q[3]". *)

type fexpr =
  | Fconst of bool
  | Fnet of string
  | Fnot of fexpr
  | Fand of fexpr list
  | For_ of fexpr list
  | Fxor of fexpr * fexpr
  | Fxnor of fexpr * fexpr
  | Fbuf of fexpr                       (** ~b *)
  | Fschmitt of fexpr                   (** ~s *)
  | Fdelay of fexpr * float             (** ~d, transport delay in ns *)
  | Ftri of { data : fexpr; enable : fexpr }  (** ~t *)
  | Fwor of fexpr list                  (** ~w *)

(** Asynchronous set/reset action: when [cond] holds the register is
    forced to [value]; listed in priority order. *)
type async = { value : bool; cond : fexpr }

type equation =
  | Comb of { target : string; rhs : fexpr }
  | Ff of {
      target : string;
      data : fexpr;
      rising : bool;   (** true: ~r, false: ~f *)
      clock : fexpr;
      asyncs : async list;
    }
  | Latch of {
      target : string;
      data : fexpr;
      transparent_high : bool;  (** true: ~h, false: ~l *)
      gate : fexpr;
    }

type t = {
  fname : string;
  finputs : string list;
  foutputs : string list;
  finternals : string list;
  fequations : equation list;
}

val target_of : equation -> string
val is_sequential : equation -> bool

val fexpr_nets : fexpr -> string list
(** Nets read by an expression, left to right, with duplicates. *)

val equation_nets : equation -> string list

val uniq : string list -> string list
(** Order-preserving deduplication. *)

type problem =
  | Undriven of string
  | Multiple_driver of string
  | Unknown_net of string

val problem_to_string : problem -> string

val validate : t -> problem list
(** Structural checks: every output driven, no net driven twice, every
    referenced net declared, no driven inputs. Empty = clean. *)

val print_fexpr : Buffer.t -> fexpr -> unit
(** MILO textual form (XOR prints as [!=], XNOR as [==]). *)

val print_equation : Buffer.t -> equation -> unit

val to_milo : t -> string
(** The nonparameterized IIF file format of Appendix A:
    NAME=/INORDER=/OUTORDER= headers followed by the equations. *)

val fingerprint : t -> string
(** Stable hex content hash of the whole design (MILO text plus the
    internal-net list). Two flats with equal fingerprints synthesize
    identically; the server keys its synthesis memo on it. *)
