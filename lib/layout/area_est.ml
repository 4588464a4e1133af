(* The paper's area estimator (§4.4.2).

   Width: X is the widest strip over random balanced assignments (equal
   cell counts per strip); Y is the width of the best placement found
   ({!Strip.place}); the estimate is (X + Y) / 2.

   Height: strips times the cell height plus routing channels; the
   number of tracks in a channel is its total horizontal wire length
   divided by the channel width times a track-utilization constant
   obtained experimentally from the layout tool. *)

open Icdb_netlist

type estimate = {
  strips : int;
  width : float;   (* µm *)
  height : float;  (* µm *)
  area : float;    (* µm² *)
  tracks : int;    (* total routing tracks across all channels *)
}

let track_pitch = 6.0      (* µm per horizontal routing track *)
let rail_height = 6.0      (* µm of Vdd/Vss rail shared by two strips *)

(* Track utilization: how much of a channel's length each track is
   actually occupied; experiments on the strip router give better
   utilization for fuller strips. *)
let track_utilization ~cells_in_strip =
  if cells_in_strip <= 2 then 0.4
  else if cells_in_strip <= 8 then 0.55
  else if cells_in_strip <= 24 then 0.7
  else 0.85

(* X of §4.4.2: max strip width when cells are assigned randomly with
   equal cell counts per strip. Averaged over a few seeds to be stable
   but still pessimistic relative to the optimized placement. *)
let random_balanced_width (nl : Netlist.t) ~strips ~seed =
  let widths =
    Array.of_list (List.map Strip.instance_width nl.Netlist.instances)
  in
  if Array.length widths = 0 then 0.0
  else begin
    let rng = Rng.create seed in
    let trials = 5 in
    let acc = ref 0.0 in
    for _ = 1 to trials do
      let order = Array.init (Array.length widths) Fun.id in
      Rng.shuffle rng order;
      let strip_w = Array.make strips 0.0 in
      Array.iteri
        (fun pos idx ->
          let s = pos mod strips in
          strip_w.(s) <- strip_w.(s) +. widths.(idx) +. Strip.cell_gap)
        order;
      acc := !acc +. Array.fold_left Float.max 0.0 strip_w
    done;
    !acc /. float_of_int trials
  end

let estimate ?(seed = 1) (nl : Netlist.t) ~strips =
  let placement = Strip.place nl ~strips in
  let y_width = Strip.width placement in
  let x_width = random_balanced_width nl ~strips ~seed in
  let width = (x_width +. y_width) /. 2.0 in
  let spans = Strip.channel_spans placement in
  let cells_per_strip =
    max 1 (List.length nl.Netlist.instances / max 1 strips)
  in
  let util = track_utilization ~cells_in_strip:cells_per_strip in
  (* total horizontal wire length over all channels divided by the
     usable channel length gives the total track count (§4.4.2) *)
  let total_span = Array.fold_left ( +. ) 0.0 spans in
  let tracks =
    int_of_float (Float.ceil (total_span /. (Float.max width 1.0 *. util)))
  in
  let channel_height = float_of_int tracks *. track_pitch in
  let height =
    (float_of_int strips *. Icdb_logic.Celllib.cell_height)
    +. channel_height
    +. (float_of_int (strips + 1) *. rail_height)
  in
  { strips; width; height; area = width *. height; tracks }
