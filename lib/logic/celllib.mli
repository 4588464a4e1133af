(** The technology cell library.

    ICDB stores, for each basic cell, the three §4.4.1 delay figures —
    X (delay per unit of transistor load), Y (intrinsic) and Z (per
    fanout) — plus the geometry the §4.4.2 area estimator needs. The
    numbers model a late-1980s 2µm CMOS standard-cell family and are
    the single calibration point for every experiment.

    Sizing: a drive multiplier [s >= 1] divides the load-dependent
    delay term and scales the cell's width and the load it presents to
    its drivers (TILOS-style). *)

open Icdb_iif

(** Matching pattern over the NAND2/INV subject graph. *)
type pattern =
  | Pleaf
  | Pinv of pattern
  | Pnand of pattern * pattern

type kind =
  | Comb
  | Ff of { has_set : bool; has_reset : bool }
  | Latch_cell of { transparent_high : bool }
  | Tri_cell

type t = {
  cname : string;
  inputs : string list;
  output : string;
  logic : Flat.fexpr option;  (** combinational function over pin names *)
  kind : kind;
  transistors : int;
  width : float;              (** µm at size 1.0 *)
  x_delay : float;            (** ns per unit-transistor load *)
  y_delay : float;            (** intrinsic ns *)
  z_delay : float;            (** ns per fanout *)
  input_load : float;         (** unit transistors per input at size 1 *)
  setup : float;              (** ns, sequential cells only *)
  patterns : pattern list;    (** tree-covering patterns; [] = direct map *)
}

val cell_height : float
(** Every cell occupies one strip row of this height (µm). *)

(** {1 The cells} *)

val inv : t
val buf : t
val nand2 : t
val nand3 : t
val nand4 : t
val nor2 : t
val nor3 : t
val and2 : t
val or2 : t
val aoi21 : t
val oai21 : t
val aoi22 : t
val oai22 : t
val xor2 : t
val xnor2 : t
val schmitt : t
val tbuf : t
val dff : t
val dff_r : t
val dff_s : t
val dff_sr : t
val latch_h : t
val latch_l : t
val tie0 : t
val tie1 : t

val all : t list

val find : string -> t option

val ff_cell : has_set:bool -> has_reset:bool -> t
val latch_cell : transparent_high:bool -> t

val is_output_pin : string -> string -> bool
(** [is_output_pin cell pin] for {!Icdb_netlist.Netlist.fanouts}. *)

val matchable : t list
(** Cells with covering patterns, cheapest first. *)

(** {1 Sizing model} *)

val sized_width : t -> float -> float
val sized_input_load : t -> float -> float

val delay : t -> size:float -> load:float -> fanout:int -> float
(** The §4.4.1 formula: [load*X/size + Y + fanout*Z]. *)
