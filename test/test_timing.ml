(* Tests for static timing analysis and transistor sizing. *)

open Icdb_iif
open Icdb_logic
open Icdb_netlist
open Icdb_timing

let check = Alcotest.check

let synthesize flat =
  let net = Network.of_flat flat in
  Opt.optimize net;
  Techmap.map net

let counter ?(size = 5) ?(typ = 2) ?(load = 0) ?(enable = 0) ?(ud = 1) () =
  synthesize
    (Builtin.expand_exn "COUNTER"
       [ ("size", size); ("type", typ); ("load", load); ("enable", enable);
         ("up_or_down", ud) ])

let adder size = synthesize (Builtin.expand_exn "ADDER" [ ("size", size) ])

(* ------------------------------------------------------------------ *)
(* STA basics                                                          *)
(* ------------------------------------------------------------------ *)

let test_sta_single_inverter () =
  let nl =
    { Netlist.name = "inv1";
      inputs = [ "a" ];
      outputs = [ "y" ];
      instances =
        [ { Netlist.inst_name = "U1"; cell = "INV"; size = 1.0;
            conns = [ ("A", "a"); ("Y", "y") ] } ] }
  in
  let r = Sta.analyze nl in
  (* no load, no fanout readers: delay = Y = 0.4, plus Z*1 for the output *)
  let wd = List.assoc "y" r.Sta.output_delays in
  check Alcotest.bool "intrinsic-ish delay" true (wd > 0.3 && wd < 1.0);
  check Alcotest.(list (pair string (float 0.001))) "no setup" [ ("a", 0.0) ]
    r.Sta.setup_times

let test_sta_chain_adds_delays () =
  let chain n =
    let instances =
      List.init n (fun i ->
          { Netlist.inst_name = Printf.sprintf "U%d" i;
            cell = "INV";
            size = 1.0;
            conns =
              [ ("A", if i = 0 then "a" else Printf.sprintf "n%d" i);
                ("Y", if i = n - 1 then "y" else Printf.sprintf "n%d" (i + 1)) ] })
    in
    { Netlist.name = "chain"; inputs = [ "a" ]; outputs = [ "y" ]; instances }
  in
  let wd n =
    List.assoc "y" (Sta.analyze (chain n)).Sta.output_delays
  in
  check Alcotest.bool "monotone in depth" true (wd 4 > wd 2 && wd 8 > wd 4);
  (* roughly linear: doubling the chain roughly doubles the delay *)
  let r = wd 8 /. wd 4 in
  check Alcotest.bool "roughly linear" true (r > 1.6 && r < 2.4)

let test_sta_load_increases_delay () =
  let nl = adder 4 in
  let base = Sta.analyze nl in
  let loaded = Sta.analyze ~port_loads:[ ("O[3]", 40.0) ] nl in
  let wd r = List.assoc "O[3]" r.Sta.output_delays in
  check Alcotest.bool "more load, more delay" true (wd loaded > wd base)

let test_sta_counter_report_shape () =
  let nl = counter ~size:5 ~load:1 ~enable:1 ~ud:3 () in
  let r = Sta.analyze nl in
  (* the §3.3 report: CW positive, Q outputs fast (just clk->Q), MINMAX
     slower (carry chain), DWUP has a setup time *)
  check Alcotest.bool "CW positive" true (r.Sta.clock_width > 0.0);
  let wd p = List.assoc p r.Sta.output_delays in
  check Alcotest.bool "MINMAX slower than Q[0]" true (wd "MINMAX" > wd "Q[0]");
  let sd = List.assoc "DWUP" r.Sta.setup_times in
  check Alcotest.bool "DWUP has setup" true (sd > 0.0);
  check Alcotest.bool "CW covers DWUP setup" true (r.Sta.clock_width >= sd)

let test_sta_ripple_slower_than_sync () =
  (* ripple counter: Q[4] settles after the whole flip-flop chain *)
  let wd nl port = List.assoc port (Sta.analyze nl).Sta.output_delays in
  let sync = counter ~typ:2 () in
  let ripple = counter ~typ:1 () in
  check Alcotest.bool "ripple Q[4] slower" true
    (wd ripple "Q[4]" > wd sync "Q[4]")

let test_sta_adder_carry_grows () =
  let wd size =
    let nl = adder size in
    List.assoc "Cout" (Sta.analyze nl).Sta.output_delays
  in
  check Alcotest.bool "8-bit carry slower than 4-bit" true (wd 8 > wd 4)

let test_sta_comb_only_no_cw_from_regs () =
  let nl = adder 4 in
  let r = Sta.analyze nl in
  (* no registers: CW reduces to the worst input->reg setup = 0 *)
  check Alcotest.(float 0.001) "CW 0 for comb" 0.0 r.Sta.clock_width

let test_report_format () =
  let nl = counter ~size:3 ~load:1 ~enable:1 ~ud:3 () in
  let r = Sta.analyze nl in
  let s = Sta.report_to_string r in
  check Alcotest.bool "has CW line" true (String.length s > 3 && String.sub s 0 3 = "CW ");
  check Alcotest.bool "mentions WD Q[2]" true
    (let re = "WD Q[2]" in
     let rec find i =
       i + String.length re <= String.length s
       && (String.sub s i (String.length re) = re || find (i + 1))
     in
     find 0)

(* ------------------------------------------------------------------ *)
(* Sizing                                                              *)
(* ------------------------------------------------------------------ *)

let test_sizing_cheapest_keeps_sizes () =
  let nl = adder 4 in
  let sized =
    Sizing.size_to_constraints nl
      { Sizing.default_constraints with strategy = Sizing.Cheapest }
  in
  List.iter
    (fun (i : Netlist.instance) ->
      check (Alcotest.float 0.0001) "size 1" 1.0 i.size)
    sized.Netlist.instances

let test_sizing_fastest_reduces_delay () =
  let nl = adder 4 in
  let before = List.assoc "Cout" (Sta.analyze nl).Sta.output_delays in
  let sized =
    Sizing.size_to_constraints nl
      { Sizing.default_constraints with strategy = Sizing.Fastest }
  in
  let after = List.assoc "Cout" (Sta.analyze sized).Sta.output_delays in
  check Alcotest.bool
    (Printf.sprintf "delay %.2f -> %.2f" before after)
    true (after < before);
  check Alcotest.bool "area grew" true
    (Sta.cell_area sized > Sta.cell_area nl)

let test_sizing_meets_comb_delay () =
  let nl = adder 4 in
  let before = List.assoc "Cout" (Sta.analyze nl).Sta.output_delays in
  (* ask for 15% faster than unsized *)
  let bound = before *. 0.85 in
  let c =
    { Sizing.default_constraints with
      comb_delays = [ ("Cout", bound) ] }
  in
  let sized = Sizing.size_to_constraints nl c in
  check Alcotest.bool "constraint met" true (Sizing.meets_constraints sized c)

let test_sizing_clock_width_constraint () =
  let nl = counter ~size:4 ~load:1 ~enable:1 ~ud:3 () in
  let cw0 = (Sta.analyze nl).Sta.clock_width in
  let c =
    { Sizing.default_constraints with clock_width = Some (cw0 *. 0.9) }
  in
  let sized = Sizing.size_to_constraints nl c in
  let cw1 = (Sta.analyze sized).Sta.clock_width in
  check Alcotest.bool
    (Printf.sprintf "CW %.2f -> %.2f (bound %.2f)" cw0 cw1 (cw0 *. 0.9))
    true (cw1 <= cw0 *. 0.9 +. 1e-6)

let test_sizing_load_costs_area () =
  (* Figure 10's mechanism: same clock-width bound under growing output
     load costs (modest) area. *)
  let nl = counter ~size:4 ~load:1 ~enable:1 ~ud:3 () in
  let cw0 = (Sta.analyze nl).Sta.clock_width in
  let area_for load =
    let ports = List.map (fun o -> (o, load)) [ "Q[0]"; "Q[1]"; "Q[2]"; "Q[3]" ] in
    let c =
      { Sizing.default_constraints with
        clock_width = Some cw0;
        port_loads = ports }
    in
    Sta.cell_area (Sizing.size_to_constraints nl c)
  in
  let a10 = area_for 10.0 and a50 = area_for 50.0 in
  check Alcotest.bool
    (Printf.sprintf "area(50)=%.0f >= area(10)=%.0f" a50 a10)
    true (a50 >= a10)

let prop_sizing_never_breaks_function =
  (* sizing only changes the [size] field; cells and connectivity stay *)
  QCheck.Test.make ~name:"sizing preserves structure" ~count:5
    QCheck.(int_range 2 5)
    (fun size ->
      let nl = adder size in
      let sized =
        Sizing.size_to_constraints nl
          { Sizing.default_constraints with strategy = Sizing.Fastest }
      in
      List.length sized.Netlist.instances = List.length nl.Netlist.instances
      && List.for_all2
           (fun (a : Netlist.instance) (b : Netlist.instance) ->
             a.cell = b.cell && a.conns = b.conns && b.size >= a.size)
           nl.Netlist.instances sized.Netlist.instances)

(* ------------------------------------------------------------------ *)
(* Differential: the compiled graph against the frozen list-based STA   *)
(* ------------------------------------------------------------------ *)

(* Random netlists: primary inputs, then instances that each read
   nets already made (with [loops], sometimes nets made later, so
   combinational loops appear) and drive a fresh net or one of two
   tri-state buses. Flip-flops clock from an input or another
   register's output, so rippled clocks appear. *)
let comb_cells =
  [| "INV"; "BUF"; "NAND2"; "NAND3"; "NOR2"; "AND2"; "OR2"; "AOI21"; "OAI22";
     "XOR2"; "SCHMITT" |]

let other_cells =
  [| "DFF"; "DFF_R"; "DFF_S"; "DFF_SR"; "LATCH_H"; "LATCH_L"; "TBUF"; "TIE0";
     "TIE1" |]

let random_netlist ?(loops = false) ?(unknown = false) st =
  let r k = Random.State.int st k in
  let inputs = List.init (1 + r 4) (Printf.sprintf "i%d") in
  let n = 1 + r 24 in
  let pool = ref (Array.of_list inputs) in
  let pick () = !pool.(r (Array.length !pool)) in
  let instances =
    List.init n (fun k ->
        let cell =
          if unknown && r n = 0 then "FOO"
          else if r 3 = 0 then other_cells.(r (Array.length other_cells))
          else comb_cells.(r (Array.length comb_cells))
        in
        let c = Icdb_logic.Celllib.find cell in
        let pins =
          match c with Some c -> c.Icdb_logic.Celllib.inputs | None -> [ "A" ]
        in
        let conns =
          List.map
            (fun pin ->
              if loops && r 8 = 0 then (pin, Printf.sprintf "n%d" (k + r 3))
              else (pin, pick ()))
            pins
        in
        let out =
          if cell = "TBUF" && r 2 = 0 then Printf.sprintf "bus%d" (r 2)
          else if loops && r 10 = 0 then List.nth inputs (r (List.length inputs))
          else Printf.sprintf "n%d" k
        in
        if not (Array.mem out !pool) then pool := Array.append !pool [| out |];
        let size =
          match r 4 with
          | 0 -> 1.0
          | 1 -> 1.3
          | 2 -> 8.0
          | _ -> 1.0 +. Random.State.float st 7.0
        in
        { Netlist.inst_name = Printf.sprintf "U%d" k; cell; size;
          conns = conns @ [ ("Y", out) ] |> List.map (fun (pin, net) ->
            match c with
            | Some c when pin = "Y" -> (c.Icdb_logic.Celllib.output, net)
            | _ -> (pin, net)) })
  in
  let outputs = List.init (1 + r 3) (fun _ -> pick ()) in
  { Netlist.name = "random"; inputs; outputs; instances }

let random_port_loads st (nl : Netlist.t) =
  List.filter_map
    (fun o ->
      if Random.State.bool st then Some (o, Random.State.float st 40.0)
      else None)
    (nl.Netlist.outputs @ nl.Netlist.outputs)

(* A chain of [n] identical inverters: every upsize along it gains
   about the same, so the sizers' tie-breaks decide. *)
let inverter_chain n =
  { Netlist.name = "chain";
    inputs = [ "a" ];
    outputs = [ "y" ];
    instances =
      List.init n (fun i ->
          { Netlist.inst_name = Printf.sprintf "U%d" i;
            cell = "INV";
            size = 1.0;
            conns =
              [ ("A", if i = 0 then "a" else Printf.sprintf "n%d" i);
                ("Y", if i = n - 1 then "y" else Printf.sprintf "n%d" (i + 1)) ] }) }

(* Catalog netlists: sequential, combinational and tri-state designs
   as technology mapping emits them. *)
let catalog =
  lazy
    (inverter_chain 8
    :: List.map
       (fun (name, params) -> synthesize (Builtin.expand_exn name params))
       [ ("ADDER", [ ("size", 3) ]);
         ("COUNTER", [ ("size", 3); ("type", 2); ("load", 1); ("enable", 1);
                       ("up_or_down", 3) ]);
         ("COUNTER", [ ("size", 3); ("type", 1); ("load", 0); ("enable", 0);
                       ("up_or_down", 1) ]);
         ("REGISTER", [ ("size", 3); ("load", 1) ]);
         ("COMPARATOR", [ ("size", 3) ]);
         ("MUX2", [ ("size", 2) ]);
         ("ALU", [ ("size", 2) ]) ])

let gen_netlist st =
  if Random.State.int st 4 = 0 then
    let c = Lazy.force catalog in
    List.nth c (Random.State.int st (List.length c))
  else random_netlist st

let bits = Int64.bits_of_float

let same_report (a : Sta.report) (b : Sta.report) =
  let same_list x y =
    List.length x = List.length y
    && List.for_all2 (fun (p, t) (q, u) -> p = q && bits t = bits u) x y
  in
  bits a.Sta.clock_width = bits b.Sta.clock_width
  && same_list a.Sta.output_delays b.Sta.output_delays
  && same_list a.Sta.setup_times b.Sta.setup_times

let same_sizes (a : Netlist.t) (b : Netlist.t) =
  List.length a.Netlist.instances = List.length b.Netlist.instances
  && List.for_all2
       (fun (i : Netlist.instance) (j : Netlist.instance) ->
         i.inst_name = j.inst_name && i.cell = j.cell && i.conns = j.conns
         && bits i.size = bits j.size)
       a.Netlist.instances b.Netlist.instances

(* A run's result, or the error it raised, as a comparable value. *)
let outcome f =
  match f () with
  | x -> Ok x
  | exception Sta.Timing_error m -> Error ("timing: " ^ m)
  | exception Invalid_argument m -> Error ("invalid: " ^ m)

let same_outcome eq a b =
  match a, b with
  | Ok x, Ok y -> eq x y
  | Error m, Error n -> m = n
  | _ -> false

let seed_arb = QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 1_000_000)

let prop_graph_matches_reference =
  QCheck.Test.make ~name:"graph report and critical set match the reference"
    ~count:300 seed_arb (fun seed ->
      let st = Random.State.make [| seed |] in
      let nl = gen_netlist st in
      let port_loads = random_port_loads st nl in
      let g = Sta.Graph.compile ~port_loads nl in
      let n = Sta.Graph.instance_count g in
      (* the sizes a graph holds after any resize sequence *)
      let step () =
        let i = Random.State.int st n in
        Sta.Graph.set_size g i
          (if Random.State.bool st then
             Float.min Sizing.max_size (Sta.Graph.size g i *. 1.3)
           else 1.0 +. Random.State.float st 7.0)
      in
      let agrees () =
        let nl' = Sta.Graph.to_netlist g in
        same_outcome same_report
          (outcome (fun () -> Sta.Graph.analyze g))
          (outcome (fun () -> Sta_ref.analyze ~port_loads nl'))
        && same_outcome ( = )
             (outcome (fun () -> Sta.Graph.critical_instances g))
             (outcome (fun () -> Sta_ref.critical_instances ~port_loads nl'))
        && bits (Sta.Graph.cell_area g) = bits (Sta_ref.cell_area nl')
      in
      List.for_all (fun k -> if k > 0 then step (); agrees ()) (List.init 12 Fun.id))

let prop_errors_match_reference =
  QCheck.Test.make ~name:"loops and unknown cells fail like the reference"
    ~count:1000 seed_arb (fun seed ->
      let st = Random.State.make [| seed |] in
      let nl = random_netlist ~loops:true ~unknown:true st in
      let port_loads = random_port_loads st nl in
      same_outcome same_report
        (outcome (fun () -> Sta.analyze ~port_loads nl))
        (outcome (fun () -> Sta_ref.analyze ~port_loads nl))
      && same_outcome ( = )
           (outcome (fun () -> Sta.critical_instances ~port_loads nl))
           (outcome (fun () -> Sta_ref.critical_instances ~port_loads nl)))

let random_constraints st (nl : Netlist.t) =
  let r0 =
    try Sta_ref.analyze nl with Sta.Timing_error _ ->
      { Sta.clock_width = 0.0; output_delays = []; setup_times = [] }
  in
  let scaled x = x *. (0.4 +. Random.State.float st 0.8) in
  let maybe f = if Random.State.bool st then Some (f ()) else None in
  let worst_wd =
    List.fold_left (fun acc (_, t) -> Float.max acc t) 0.0 r0.Sta.output_delays
  in
  { Sizing.clock_width = maybe (fun () -> scaled r0.Sta.clock_width);
    comb_delays =
      (match Random.State.int st 3 with
       | 0 -> []
       | 1 -> [ ("*", scaled worst_wd) ]
       | _ ->
           List.map (fun (o, t) -> (o, scaled t)) r0.Sta.output_delays);
    setup_bound =
      maybe (fun () ->
          scaled
            (List.fold_left (fun acc (_, t) -> Float.max acc t) 0.0
               r0.Sta.setup_times));
    port_loads = random_port_loads st nl;
    strategy =
      [| Sizing.Fastest; Sizing.Balanced; Sizing.Cheapest |].(Random.State.int st 3) }

let prop_sizing_matches_reference =
  QCheck.Test.make ~name:"sizing decisions match the reference sizer"
    ~count:250 seed_arb (fun seed ->
      let st = Random.State.make [| seed |] in
      let nl = gen_netlist st in
      let c = random_constraints st nl in
      same_outcome same_sizes
        (outcome (fun () -> Sizing.size_to_constraints nl c))
        (outcome (fun () -> Sta_ref.size_to_constraints nl c)))

let test_sizing_catalog_matches_reference () =
  List.iter
    (fun nl ->
      List.iter
        (fun strategy ->
          let r0 = Sta_ref.analyze nl in
          let c =
            { Sizing.default_constraints with
              clock_width = Some (r0.Sta.clock_width *. 0.8);
              comb_delays =
                List.map (fun (o, t) -> (o, t *. 0.8)) r0.Sta.output_delays;
              strategy }
          in
          check Alcotest.bool
            (Printf.sprintf "%s sized like the reference" nl.Netlist.name)
            true
            (same_sizes (Sizing.size_to_constraints nl c)
               (Sta_ref.size_to_constraints nl c)))
        [ Sizing.Fastest; Sizing.Balanced ])
    (Lazy.force catalog)

let test_duplicate_instance_name () =
  let inv name a y =
    { Netlist.inst_name = name; cell = "INV"; size = 1.0;
      conns = [ ("A", a); ("Y", y) ] }
  in
  let nl =
    { Netlist.name = "dup"; inputs = [ "a" ]; outputs = [ "y" ];
      instances = [ inv "U1" "a" "n"; inv "U1" "n" "y" ] }
  in
  let raises f =
    match f () with
    | _ -> Alcotest.fail "duplicate instance names should not time"
    | exception Sta.Timing_error m ->
        check Alcotest.string "message" "duplicate instance name U1" m
  in
  raises (fun () -> ignore (Sta.analyze nl));
  raises (fun () -> ignore (Sta.Graph.compile nl));
  raises (fun () ->
      ignore
        (Sizing.size_to_constraints nl
           { Sizing.default_constraints with strategy = Sizing.Fastest }))

let test_non_finite_port_load () =
  (* NaN marks "no arrival" inside the graph, so a load that would make
     a delay NaN is refused; one naming no net is ignored as before *)
  let nl = adder 2 in
  List.iter
    (fun l ->
      match Sta.analyze ~port_loads:[ ("Cout", l) ] nl with
      | _ -> Alcotest.failf "load %g should be refused" l
      | exception Sta.Timing_error _ -> ())
    [ Float.nan; Float.infinity ];
  check Alcotest.bool "unknown port ignored" true
    (same_report (Sta.analyze nl)
       (Sta.analyze ~port_loads:[ ("nowhere", Float.nan) ] nl))

let test_resize_restores_exactly () =
  (* upsizing and restoring an instance leaves every figure as it was:
     loads are recomputed, never patched *)
  let nl = counter ~size:4 ~load:1 ~enable:1 ~ud:3 () in
  let g = Sta.Graph.compile ~port_loads:[ ("Q[0]", 7.5) ] nl in
  let r0 = Sta.Graph.analyze g in
  for i = 0 to Sta.Graph.instance_count g - 1 do
    let old = Sta.Graph.size g i in
    Sta.Graph.set_size g i (old *. 1.3);
    ignore (Sta.Graph.analyze g);
    Sta.Graph.set_size g i old
  done;
  check Alcotest.bool "report unchanged" true (same_report r0 (Sta.Graph.analyze g));
  check Alcotest.bool "netlist unchanged" true (same_sizes nl (Sta.Graph.to_netlist g))

let test_sizing_span_counts_evaluations () =
  let was = Icdb_obs.Trace.enabled () in
  Icdb_obs.Trace.set_enabled true;
  let mark = Icdb_obs.Trace.finished_count () in
  ignore
    (Fun.protect
       ~finally:(fun () -> Icdb_obs.Trace.set_enabled was)
       (fun () ->
         Sizing.size_to_constraints (adder 4)
           { Sizing.default_constraints with strategy = Sizing.Fastest }));
  match
    List.filter
      (fun (s : Icdb_obs.Trace.span) -> s.Icdb_obs.Trace.sname = "sizing.size")
      (Icdb_obs.Trace.since mark)
  with
  | [ s ] ->
      let n =
        int_of_string (List.assoc "evaluations" s.Icdb_obs.Trace.sattrs)
      in
      check Alcotest.bool (Printf.sprintf "%d evaluations" n) true (n > 0)
  | spans -> Alcotest.failf "%d sizing.size spans" (List.length spans)

let props =
  List.map QCheck_alcotest.to_alcotest
    [ prop_sizing_never_breaks_function; prop_graph_matches_reference;
      prop_errors_match_reference; prop_sizing_matches_reference ]


let () =
  Alcotest.run "timing"
    [ ("sta",
       [ Alcotest.test_case "single inverter" `Quick test_sta_single_inverter;
         Alcotest.test_case "chain adds delays" `Quick test_sta_chain_adds_delays;
         Alcotest.test_case "load increases delay" `Quick test_sta_load_increases_delay;
         Alcotest.test_case "counter report shape" `Quick test_sta_counter_report_shape;
         Alcotest.test_case "ripple slower than sync" `Quick test_sta_ripple_slower_than_sync;
         Alcotest.test_case "adder carry grows" `Quick test_sta_adder_carry_grows;
         Alcotest.test_case "comb has zero CW" `Quick test_sta_comb_only_no_cw_from_regs;
         Alcotest.test_case "report format" `Quick test_report_format ]);
      ("sizing",
       [ Alcotest.test_case "cheapest keeps sizes" `Quick test_sizing_cheapest_keeps_sizes;
         Alcotest.test_case "fastest reduces delay" `Quick test_sizing_fastest_reduces_delay;
         Alcotest.test_case "meets comb delay" `Quick test_sizing_meets_comb_delay;
         Alcotest.test_case "clock width constraint" `Quick test_sizing_clock_width_constraint;
         Alcotest.test_case "load costs area" `Quick test_sizing_load_costs_area ]);
      ("graph",
       [ Alcotest.test_case "duplicate instance name" `Quick test_duplicate_instance_name;
         Alcotest.test_case "non-finite port load" `Quick test_non_finite_port_load;
         Alcotest.test_case "resize restores exactly" `Quick test_resize_restores_exactly;
         Alcotest.test_case "sizing span counts evaluations" `Quick
           test_sizing_span_counts_evaluations;
         Alcotest.test_case "catalog sizing matches reference" `Quick
           test_sizing_catalog_matches_reference ]);
      ("properties", props) ]
