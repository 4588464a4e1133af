(* The technology cell library.

   ICDB stores, for each basic cell, the three delay figures of §4.4.1 —
   X (delay per unit of transistor load), Y (input-to-output intrinsic
   delay) and Z (delay per fanout) — plus the geometry the area
   estimator needs (§4.4.2): transistor count, cell width and the fixed
   strip height. The numbers model a late-1980s 2µm CMOS standard-cell
   family; they are the single calibration point for every experiment.

   Sizing: a drive multiplier [s >= 1] divides the load-dependent delay
   term and scales the cell's width and the load it presents to its own
   drivers (TILOS-style). *)

open Icdb_iif

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
  logic : Flat.fexpr option;  (* combinational function over pin names *)
  kind : kind;
  transistors : int;
  width : float;              (* µm at size 1.0 *)
  x_delay : float;            (* ns per unit-transistor load *)
  y_delay : float;            (* intrinsic ns *)
  z_delay : float;            (* ns per fanout *)
  input_load : float;         (* unit transistors per input at size 1.0 *)
  setup : float;              (* ns, sequential cells only *)
  patterns : pattern list;    (* for tree covering; [] = direct map only *)
}

(* Every cell occupies one strip row. *)
let cell_height = 44.0

let net n = Flat.Fnet n
let fand es = Flat.Fand es
let for_ es = Flat.For_ es
let fnot e = Flat.Fnot e

let comb ?(patterns = []) cname inputs logic ~t ~x ~y ~z ?(load = 2.0) () =
  { cname;
    inputs;
    output = "Y";
    logic = Some logic;
    kind = Comb;
    transistors = t;
    width = float_of_int t *. 2.2;
    x_delay = x;
    y_delay = y;
    z_delay = z;
    input_load = load;
    setup = 0.0;
    patterns }

let inv = comb "INV" [ "A" ] (fnot (net "A")) ~t:2 ~x:0.20 ~y:0.40 ~z:0.10
    ~patterns:[ Pinv Pleaf ] ()

let buf = comb "BUF" [ "A" ] (Flat.Fbuf (net "A")) ~t:4 ~x:0.12 ~y:0.80 ~z:0.06
    ~patterns:[ Pinv (Pinv Pleaf) ] ()

let nand2 =
  comb "NAND2" [ "A"; "B" ] (fnot (fand [ net "A"; net "B" ]))
    ~t:4 ~x:0.25 ~y:0.55 ~z:0.10
    ~patterns:[ Pnand (Pleaf, Pleaf) ] ()

let nand3 =
  comb "NAND3" [ "A"; "B"; "C" ] (fnot (fand [ net "A"; net "B"; net "C" ]))
    ~t:6 ~x:0.30 ~y:0.70 ~z:0.12
    ~patterns:[ Pnand (Pinv (Pnand (Pleaf, Pleaf)), Pleaf) ] ()

let nand4 =
  comb "NAND4" [ "A"; "B"; "C"; "D" ]
    (fnot (fand [ net "A"; net "B"; net "C"; net "D" ]))
    ~t:8 ~x:0.35 ~y:0.90 ~z:0.14
    ~patterns:
      [ Pnand (Pinv (Pnand (Pinv (Pnand (Pleaf, Pleaf)), Pleaf)), Pleaf);
        Pnand (Pinv (Pnand (Pleaf, Pleaf)), Pinv (Pnand (Pleaf, Pleaf))) ]
    ()

let nor2 =
  comb "NOR2" [ "A"; "B" ] (fnot (for_ [ net "A"; net "B" ]))
    ~t:4 ~x:0.30 ~y:0.65 ~z:0.12
    ~patterns:[ Pinv (Pnand (Pinv Pleaf, Pinv Pleaf)) ] ()

let nor3 =
  comb "NOR3" [ "A"; "B"; "C" ] (fnot (for_ [ net "A"; net "B"; net "C" ]))
    ~t:6 ~x:0.38 ~y:0.85 ~z:0.14
    ~patterns:
      [ Pinv (Pnand (Pinv (Pinv (Pnand (Pinv Pleaf, Pinv Pleaf))), Pinv Pleaf)) ]
    ()

let and2 =
  comb "AND2" [ "A"; "B" ] (fand [ net "A"; net "B" ])
    ~t:6 ~x:0.25 ~y:0.75 ~z:0.10
    ~patterns:[ Pinv (Pnand (Pleaf, Pleaf)) ] ()

let or2 =
  comb "OR2" [ "A"; "B" ] (for_ [ net "A"; net "B" ])
    ~t:6 ~x:0.28 ~y:0.80 ~z:0.11
    ~patterns:[ Pnand (Pinv Pleaf, Pinv Pleaf) ] ()

let aoi21 =
  comb "AOI21" [ "A"; "B"; "C" ]
    (fnot (for_ [ fand [ net "A"; net "B" ]; net "C" ]))
    ~t:6 ~x:0.32 ~y:0.75 ~z:0.12
    ~patterns:[ Pinv (Pnand (Pnand (Pleaf, Pleaf), Pinv Pleaf)) ] ()

let oai21 =
  comb "OAI21" [ "A"; "B"; "C" ]
    (fnot (fand [ for_ [ net "A"; net "B" ]; net "C" ]))
    ~t:6 ~x:0.32 ~y:0.75 ~z:0.12
    ~patterns:[ Pnand (Pnand (Pinv Pleaf, Pinv Pleaf), Pleaf) ] ()

let aoi22 =
  comb "AOI22" [ "A"; "B"; "C"; "D" ]
    (fnot (for_ [ fand [ net "A"; net "B" ]; fand [ net "C"; net "D" ] ]))
    ~t:8 ~x:0.36 ~y:0.85 ~z:0.13
    ~patterns:[ Pinv (Pnand (Pnand (Pleaf, Pleaf), Pnand (Pleaf, Pleaf))) ] ()

let oai22 =
  comb "OAI22" [ "A"; "B"; "C"; "D" ]
    (fnot (fand [ for_ [ net "A"; net "B" ]; for_ [ net "C"; net "D" ] ]))
    ~t:8 ~x:0.36 ~y:0.85 ~z:0.13
    ~patterns:
      [ Pnand (Pnand (Pinv Pleaf, Pinv Pleaf), Pnand (Pinv Pleaf, Pinv Pleaf)) ]
    ()

let xor2 =
  comb "XOR2" [ "A"; "B" ] (Flat.Fxor (net "A", net "B"))
    ~t:10 ~x:0.38 ~y:1.10 ~z:0.14 ~load:3.0 ()

let xnor2 =
  comb "XNOR2" [ "A"; "B" ] (Flat.Fxnor (net "A", net "B"))
    ~t:10 ~x:0.38 ~y:1.10 ~z:0.14 ~load:3.0 ()

let schmitt =
  comb "SCHMITT" [ "A" ] (Flat.Fschmitt (net "A"))
    ~t:6 ~x:0.30 ~y:1.20 ~z:0.10 ()

let tbuf =
  { cname = "TBUF";
    inputs = [ "A"; "EN" ];
    output = "Y";
    logic = None;
    kind = Tri_cell;
    transistors = 6;
    width = 13.2;
    x_delay = 0.25;
    y_delay = 0.90;
    z_delay = 0.10;
    input_load = 2.0;
    setup = 0.0;
    patterns = [] }

let ff ~cname ~has_set ~has_reset ~t ~y ~setup =
  let inputs =
    [ "D"; "CK" ]
    @ (if has_set then [ "S" ] else [])
    @ if has_reset then [ "R" ] else []
  in
  { cname;
    inputs;
    output = "Q";
    logic = None;
    kind = Ff { has_set; has_reset };
    transistors = t;
    width = float_of_int t *. 2.2;
    x_delay = 0.25;
    y_delay = y;
    z_delay = 0.12;
    input_load = 2.0;
    setup;
    patterns = [] }

let dff = ff ~cname:"DFF" ~has_set:false ~has_reset:false ~t:20 ~y:3.5 ~setup:2.5
let dff_r = ff ~cname:"DFF_R" ~has_set:false ~has_reset:true ~t:24 ~y:3.8 ~setup:2.8
let dff_s = ff ~cname:"DFF_S" ~has_set:true ~has_reset:false ~t:24 ~y:3.8 ~setup:2.8
let dff_sr = ff ~cname:"DFF_SR" ~has_set:true ~has_reset:true ~t:28 ~y:4.2 ~setup:3.0

let latch ~cname ~transparent_high =
  { cname;
    inputs = [ "D"; "G" ];
    output = "Q";
    logic = None;
    kind = Latch_cell { transparent_high };
    transistors = 12;
    width = 26.4;
    x_delay = 0.25;
    y_delay = 1.5;
    z_delay = 0.12;
    input_load = 2.0;
    setup = 1.5;
    patterns = [] }

let latch_h = latch ~cname:"LATCH_H" ~transparent_high:true
let latch_l = latch ~cname:"LATCH_L" ~transparent_high:false

(* Supply ties for constant nets. *)
let tie value =
  { cname = (if value then "TIE1" else "TIE0");
    inputs = [];
    output = "Y";
    logic = Some (Flat.Fconst value);
    kind = Comb;
    transistors = 2;
    width = 4.4;
    x_delay = 0.0;
    y_delay = 0.0;
    z_delay = 0.0;
    input_load = 0.0;
    setup = 0.0;
    patterns = [] }

let tie0 = tie false
let tie1 = tie true

let all =
  [ inv; buf; nand2; nand3; nand4; nor2; nor3; and2; or2; aoi21; oai21;
    aoi22; oai22; xor2; xnor2; schmitt; tbuf; dff; dff_r; dff_s; dff_sr;
    latch_h; latch_l; tie0; tie1 ]

let by_name = Hashtbl.create 32

let () = List.iter (fun c -> Hashtbl.replace by_name c.cname c) all

let find name = Hashtbl.find_opt by_name name

let ff_cell ~has_set ~has_reset =
  match has_set, has_reset with
  | false, false -> dff
  | false, true -> dff_r
  | true, false -> dff_s
  | true, true -> dff_sr

let latch_cell ~transparent_high = if transparent_high then latch_h else latch_l

let is_output_pin cell pin =
  match find cell with
  | Some c -> c.output = pin
  | None -> false

(* Matchable cells, cheapest-first so ties in covering are stable. *)
let matchable =
  List.filter (fun c -> c.patterns <> []) all
  |> List.sort (fun a b -> compare a.transistors b.transistors)

(* Width of an instance after sizing: transistor widths scale with the
   drive multiplier but diffusion sharing keeps growth sub-linear. *)
let sized_width cell size = cell.width *. (0.5 +. (0.5 *. size))

(* Load one input pin presents to its driver. *)
let sized_input_load cell size = cell.input_load *. size

(* Gate delay through a cell: paper formula delay = load*X + Y + fanout*Z,
   with the load term divided by the drive multiplier. *)
let delay cell ~size ~load ~fanout =
  (cell.x_delay *. load /. size)
  +. cell.y_delay
  +. (cell.z_delay *. float_of_int fanout)
