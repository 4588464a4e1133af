(** Gate-level netlists: the output of technology mapping and the input
    to sizing, timing analysis, simulation and layout.

    A netlist instantiates cells by name; cell semantics (function,
    delay, geometry) live in the technology library, keeping this
    module dependency-free. *)

type instance = {
  inst_name : string;
  cell : string;                   (** cell-library name, e.g. "NAND2" *)
  size : float;                    (** drive-strength multiplier, >= 1 *)
  conns : (string * string) list;  (** cell pin -> net *)
}

type t = {
  name : string;
  inputs : string list;
  outputs : string list;
  instances : instance list;
}

val pin_net : instance -> string -> string option
(** Net connected to a pin. *)

val pin_net_exn : instance -> string -> string
(** @raise Invalid_argument when the pin is unconnected. *)

val nets : t -> string list
(** Every net, inputs and outputs first, no duplicates. *)

val instance_count : t -> int

val cell_histogram : t -> (string * int) list
(** Instance count per cell name, sorted by name. *)

val fanouts :
  t ->
  is_output_pin:(string -> string -> bool) ->
  (string, (instance * string) list) Hashtbl.t
(** Net -> reading (instance, pin) pairs. [is_output_pin cell pin]
    distinguishes cell outputs. *)

val drivers :
  t ->
  is_output_pin:(string -> string -> bool) ->
  (string, (instance * string) list) Hashtbl.t
(** Net -> driving (instance, pin) pairs (several for tri-state buses). *)
