(** Typed atomic values stored in relation columns.

    The engine is deliberately small: four atomic types cover everything
    ICDB stores (component metadata, attribute values, file names, delay
    numbers). *)

type t =
  | Int of int
  | Float of float
  | Str of string
  | Bool of bool

type ty = Tint | Tfloat | Tstr | Tbool

val ty_of : t -> ty
(** [ty_of v] is the runtime type tag of [v]. *)

val ty_name : ty -> string
(** Human-readable type name ("int", "float", "string", "bool"). *)

val equal : t -> t -> bool
(** Structural equality. [Int] and [Float] never compare equal. *)

val compare : t -> t -> int
(** Total order: within a type, natural order; across types, by type tag. *)

val to_string : t -> string
(** Display form, also used by the textual persistence layer. *)

val escape : string -> string
(** Escape a string for single-line storage (backslash, newline, tab). *)

val unescape : string -> string
(** Inverse of {!escape}. *)

val encode : t -> string
(** Single-line, type-tagged encoding used by {!Storage}. *)

val decode : string -> t
(** Inverse of {!encode}.
    @raise Failure on a malformed encoding. *)
