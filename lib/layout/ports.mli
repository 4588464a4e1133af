(** Port position assignment (§3.3).

    Requests assign each port a side and a relative position:
    {v
CLK left s1.0
D[0] top 10
MINMAX right s2.0
    v}
    Ports on a side are sorted by their position number and spread
    uniformly along that side of the bounding box. *)

type side = Left | Right | Top | Bottom

type spec = {
  port : string;
  side : side;
  position : float;  (** relative order key *)
}

type placed_port = {
  pp_name : string;
  pp_side : side;
  pp_x : float;
  pp_y : float;
}

exception Port_error of string

val side_of_string : string -> side
(** @raise Port_error on unknown sides. *)

val parse : string -> spec list
(** Parse the paper's line format; the "s" slot prefix is accepted.
    Blank lines are skipped.
    @raise Port_error on malformed lines. *)

val assign : spec list -> width:float -> height:float -> placed_port list
(** Concrete pad coordinates on a box of the given dimensions. *)

val default : inputs:string list -> outputs:string list -> spec list
(** When the user gives no positions: inputs left, outputs right,
    clock-like ports at the bottom. *)
