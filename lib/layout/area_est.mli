(** The paper's area estimator (§4.4.2).

    Width: X is the widest strip over random balanced assignments, Y
    the width of the optimized placement; the estimate is (X + Y) / 2.
    Height: strip rows plus Vdd/Vss rails plus routing channels, with
    the track count derived from total horizontal wire length over a
    track-utilization constant. Deterministic for a given [seed]. *)

type estimate = {
  strips : int;
  width : float;   (** µm *)
  height : float;  (** µm *)
  area : float;    (** µm² *)
  tracks : int;    (** routing tracks across all channels *)
}

val track_pitch : float
val rail_height : float

val track_utilization : cells_in_strip:int -> float
(** Experimentally-derived utilization constant (§4.4.2). *)

val random_balanced_width :
  Icdb_netlist.Netlist.t -> strips:int -> seed:int -> float
(** The X figure: max strip width under random balanced assignment,
    averaged over a few shuffles. *)

val estimate :
  ?seed:int -> Icdb_netlist.Netlist.t -> strips:int -> estimate
