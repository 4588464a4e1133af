(** Static timing analysis over cell netlists.

    Implements the paper's delay estimator (§4.4.1): each cell carries
    X (delay per unit transistor load), Y (intrinsic) and Z (per
    fanout); an output's delay is [load*X + Y + fanout*Z] and a path
    sums its cells. Produces the §3.3 report: CW (minimum clock
    width), WD (worst clock-to-output delay per output) and SD (setup
    time per input). Register launch times include clock-network
    arrival, so rippled-clock counters time correctly.

    Every analysis runs on a {!Graph}: the netlist compiled once into
    arrays. The netlist-level functions below compile a fresh graph
    per call; the sizer compiles one and re-times it after each trial
    resize. *)

exception Timing_error of string

type report = {
  clock_width : float;                     (** CW, ns *)
  output_delays : (string * float) list;   (** WD per output port *)
  setup_times : (string * float) list;     (** SD per input port *)
}

(** A netlist compiled for timing: instances and nets interned into
    arrays, with a mutable size per instance.

    Instance names must be unique: {!compile} raises [Timing_error] on
    the first instance whose name an earlier instance already has.
    Instances are numbered [0 .. instance_count - 1] in netlist order. *)
module Graph : sig
  type t

  val compile : ?port_loads:(string * float) list -> Icdb_netlist.Netlist.t -> t
  (** [compile ~port_loads nl] with external unit-transistor loads on
      the named output ports (the CQL [oload] figures; the first entry
      for a port wins; entries naming no net of [nl] are ignored).
      @raise Timing_error on unknown cells, duplicate instance names or
      a non-finite load on a net of [nl]. *)

  val instance_count : t -> int

  val size : t -> int -> float
  (** Current drive multiplier of instance [i]. *)

  val set_size : t -> int -> float -> unit
  (** Resize instance [i] in place. The loads of the nets it reads are
      recomputed from scratch, so sizing an instance and then restoring
      its old size leaves every figure bit-identical. *)

  val analyze : t -> report
  (** The §3.3 report under the current sizes.
      @raise Timing_error on a timing loop reached from a port or
      register. *)

  val critical_mask : t -> bool array
  (** Per instance: on the worst path (endpoint with the latest
      arrival, walked back through worst-arrival fanins)? *)

  val critical_instances : t -> string list
  (** Names of the instances {!critical_mask} marks, sorted. *)

  val cell_area : t -> float
  (** Total sized cell area in µm² under the current sizes. *)

  val to_netlist : t -> Icdb_netlist.Netlist.t
  (** The compiled netlist with the current sizes; structure is
      otherwise unchanged. *)
end

val analyze :
  ?port_loads:(string * float) list -> Icdb_netlist.Netlist.t -> report
(** [analyze ~port_loads nl] runs timing with external unit-transistor
    loads on the named output ports (the CQL [oload] figures).
    @raise Timing_error on unknown cells, duplicate instance names,
    non-finite port loads or timing loops. *)

val critical_instances :
  ?port_loads:(string * float) list -> Icdb_netlist.Netlist.t -> string list
(** Instance names on the worst path; see {!Graph.critical_mask}. The
    sizer restricts its upsizing candidates to these. *)

val cell_area : Icdb_netlist.Netlist.t -> float
(** Total sized cell area in µm² (widths times the strip height): the
    pre-layout figure sizing optimizes against.
    @raise Timing_error on unknown cells or duplicate instance names. *)

val report_to_string : report -> string
(** The §3.3 textual listing: [CW ...], [WD <port> ...],
    [SD <port> ...] lines. *)
