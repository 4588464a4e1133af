type rel = {
  rname : string;
  rschema : Table.schema;
  rrows : Table.row list;
}

type pred =
  | True
  | Eq of string * Value.t
  | Neq of string * Value.t
  | Lt of string * Value.t
  | Le of string * Value.t
  | Gt of string * Value.t
  | Ge of string * Value.t
  | Like of string * string
  | And of pred * pred
  | Or of pred * pred
  | Not of pred

let of_table t =
  { rname = Table.name t; rschema = Table.schema t; rrows = Table.rows t }

let columns_hint rschema =
  String.concat ", " (List.map fst rschema)

let no_column rel col =
  raise
    (Table.Schema_error
       (Printf.sprintf "table %s: no column %s (columns: %s)" rel.rname col
          (columns_hint rel.rschema)))

let col_index rel col =
  let rec loop i = function
    | [] -> no_column rel col
    | (c, _) :: rest -> if String.equal c col then i else loop (i + 1) rest
  in
  loop 0 rel.rschema

let field rel row col = row.(col_index rel col)

(* Check every column a predicate references against the relation's
   schema, so a WHERE on a nonexistent column is a structured error even
   when the relation is empty (a silent always-false scan otherwise). *)
let rec validate_pred rel = function
  | True -> ()
  | Eq (c, _) | Neq (c, _) | Lt (c, _) | Le (c, _) | Gt (c, _) | Ge (c, _)
  | Like (c, _) ->
      ignore (col_index rel c)
  | And (a, b) | Or (a, b) ->
      validate_pred rel a;
      validate_pred rel b
  | Not a -> validate_pred rel a

(* Numeric-coercing comparison used by ordering predicates. *)
let cmp_values a b =
  match a, b with
  | Value.Int x, Value.Float y -> Float.compare (float_of_int x) y
  | Value.Float x, Value.Int y -> Float.compare x (float_of_int y)
  | _ -> Value.compare a b

let contains_substring ~needle hay =
  let nh = String.length hay and nn = String.length needle in
  if nn = 0 then true
  else
    let rec at i = i + nn <= nh && (String.sub hay i nn = needle || at (i + 1)) in
    at 0

let rec eval_pred rel p row =
  match p with
  | True -> true
  | Eq (c, v) -> cmp_values (field rel row c) v = 0
  | Neq (c, v) -> cmp_values (field rel row c) v <> 0
  | Lt (c, v) -> cmp_values (field rel row c) v < 0
  | Le (c, v) -> cmp_values (field rel row c) v <= 0
  | Gt (c, v) -> cmp_values (field rel row c) v > 0
  | Ge (c, v) -> cmp_values (field rel row c) v >= 0
  | Like (c, pat) -> (
      match field rel row c with
      | Value.Str s -> contains_substring ~needle:pat s
      | Value.Int _ | Value.Float _ | Value.Bool _ -> false)
  | And (a, b) -> eval_pred rel a row && eval_pred rel b row
  | Or (a, b) -> eval_pred rel a row || eval_pred rel b row
  | Not a -> not (eval_pred rel a row)

let select p rel =
  validate_pred rel p;
  { rel with rrows = List.filter (eval_pred rel p) rel.rrows }

(* Stable text for a predicate, used by EXPLAIN. Parenthesization is
   explicit everywhere so the rendering is unambiguous without
   precedence knowledge (and golden tests stay trivially stable). *)
let value_literal = function
  | Value.Str s ->
      let buf = Buffer.create (String.length s + 2) in
      Buffer.add_char buf '\'';
      String.iter
        (fun c ->
          if c = '\'' then Buffer.add_string buf "''"
          else Buffer.add_char buf c)
        s;
      Buffer.add_char buf '\'';
      Buffer.contents buf
  | v -> Value.to_string v

let rec pred_to_string = function
  | True -> "true"
  | Eq (c, v) -> Printf.sprintf "%s = %s" c (value_literal v)
  | Neq (c, v) -> Printf.sprintf "%s != %s" c (value_literal v)
  | Lt (c, v) -> Printf.sprintf "%s < %s" c (value_literal v)
  | Le (c, v) -> Printf.sprintf "%s <= %s" c (value_literal v)
  | Gt (c, v) -> Printf.sprintf "%s > %s" c (value_literal v)
  | Ge (c, v) -> Printf.sprintf "%s >= %s" c (value_literal v)
  | Like (c, pat) -> Printf.sprintf "%s LIKE '%s'" c pat
  | And (a, b) ->
      Printf.sprintf "(%s AND %s)" (pred_to_string a) (pred_to_string b)
  | Or (a, b) ->
      Printf.sprintf "(%s OR %s)" (pred_to_string a) (pred_to_string b)
  | Not a -> Printf.sprintf "(NOT %s)" (pred_to_string a)

(* Equality conjuncts available for index probing: [Eq] nodes reachable
   from the root through [And] only. Under [Or]/[Not] an equality no
   longer bounds the result set. *)
let rec eq_conjuncts = function
  | Eq (c, v) -> [ (c, v) ]
  | And (a, b) -> eq_conjuncts a @ eq_conjuncts b
  | _ -> []

let c_select_indexed =
  lazy (Icdb_obs.Metrics.counter "reldb.select.indexed")

let c_select_scan = lazy (Icdb_obs.Metrics.counter "reldb.select.scan")

type access =
  | Scan
  | Probe of {
      ap_col : string;
      ap_value : Value.t;
      ap_est : int;
      ap_stats : bool;
    }

(* Choose the access path without touching any row: every eligible
   equality conjunct is costed via {!Table.probe_estimate} (O(1) when
   statistics exist, one bucket-length walk otherwise) and the smallest
   estimate wins. Only the winner is ever materialized — the old
   planner copied every candidate bucket just to measure it. *)
let plan_access tbl p =
  let best =
    List.fold_left
      (fun acc (c, v) ->
        match Table.probe_estimate tbl c v with
        | None -> acc
        | Some est -> (
            let n, from_stats =
              match est with `Stats n -> (n, true) | `Bucket n -> (n, false)
            in
            match acc with
            | Some (_, _, m, _) when m <= n -> acc
            | _ -> Some (c, v, n, from_stats)))
      None (eq_conjuncts p)
  in
  match best with
  | Some (ap_col, ap_value, ap_est, ap_stats) ->
      Probe { ap_col; ap_value; ap_est; ap_stats }
  | None -> Scan

(* Materialize a chosen access path: the rows the access produces
   before the predicate filters them (the whole table for a scan, one
   bucket's copies for a probe). Bumps the select counters — this is
   the execution step, where plan_access is the decision. Kept separate
   so EXPLAIN ANALYZE can time access and refilter as distinct plan
   nodes. *)
let run_access tbl p access =
  let base =
    { rname = Table.name tbl; rschema = Table.schema tbl; rrows = [] }
  in
  validate_pred base p;
  match access with
  | Probe { ap_col; ap_value; _ } -> (
      match Table.index_lookup tbl ap_col ap_value with
      | Some rows ->
          Icdb_obs.Metrics.incr (Lazy.force c_select_indexed);
          { base with rrows = rows }
      | None ->
          (* unreachable while the table is unchanged between plan and
             execution (both run under the caller's lock), but fall
             back to the scan rather than assert *)
          Icdb_obs.Metrics.incr (Lazy.force c_select_scan);
          { base with rrows = Table.rows tbl })
  | Scan ->
      Icdb_obs.Metrics.incr (Lazy.force c_select_scan);
      { base with rrows = Table.rows tbl }

let select_table tbl p =
  let acc = run_access tbl p (plan_access tbl p) in
  (* The bucket is a superset of the answer (the equality is one
     conjunct); the full predicate filters it down, so indexed and scan
     execution agree row-for-row. *)
  { acc with rrows = List.filter (eval_pred acc p) acc.rrows }

let project cols rel =
  let idxs = List.map (col_index rel) cols in
  let rschema = List.map (fun i -> List.nth rel.rschema i) idxs in
  let take row = Array.of_list (List.map (fun i -> row.(i)) idxs) in
  { rel with rschema; rrows = List.map take rel.rrows }

let rename pairs rel =
  let ren (c, ty) =
    match List.assoc_opt c pairs with Some c' -> (c', ty) | None -> (c, ty)
  in
  { rel with rschema = List.map ren rel.rschema }

let order_by col ?(desc = false) rel =
  let i = col_index rel col in
  let cmp a b =
    let c = cmp_values a.(i) b.(i) in
    if desc then -c else c
  in
  { rel with rrows = List.stable_sort cmp rel.rrows }

let distinct rel =
  let seen = Hashtbl.create 64 in
  let keep row =
    let key = String.concat "\x00" (Array.to_list (Array.map Value.encode row)) in
    if Hashtbl.mem seen key then false
    else begin
      Hashtbl.add seen key ();
      true
    end
  in
  { rel with rrows = List.filter keep rel.rrows }

let limit n rel =
  let rec take k = function
    | [] -> []
    | _ when k = 0 -> []
    | x :: rest -> x :: take (k - 1) rest
  in
  { rel with rrows = take (max 0 n) rel.rrows }

let count rel = List.length rel.rrows

let column_values rel col =
  let i = col_index rel col in
  List.map (fun row -> row.(i)) rel.rrows

(* Pareto classification: minimize both objectives. Row r is dominated
   when some row s has s.x <= r.x, s.y <= r.y with at least one strict;
   rows with identical (x, y) never dominate each other, so duplicate
   optima all stay on the frontier. One sort + one sweep: within a
   sorted-by-(x, y) order, a row is frontier iff its y equals its
   x-group minimum AND lies strictly below every strictly-smaller-x
   group's minimum. *)
let pareto_flags ~x ~y rel =
  let xi = col_index rel x and yi = col_index rel y in
  let num col v =
    match v with
    | Value.Int i -> float_of_int i
    | Value.Float f -> f
    | Value.Str _ | Value.Bool _ ->
        raise
          (Table.Schema_error
             (Printf.sprintf
                "table %s: pareto objective %s must be numeric, got %s"
                rel.rname col
                (Value.ty_name (Value.ty_of v))))
  in
  let pts =
    List.mapi (fun i row -> (i, num x row.(xi), num y row.(yi))) rel.rrows
  in
  let sorted =
    List.stable_sort
      (fun (_, x1, y1) (_, x2, y2) ->
        let c = Float.compare x1 x2 in
        if c <> 0 then c else Float.compare y1 y2)
      pts
  in
  let flags = Array.make (List.length pts) false in
  let best_y = ref None (* min y over strictly-smaller-x groups *) in
  let cur = ref None (* (group x, group min y) *) in
  List.iter
    (fun (i, px, py) ->
      (match !cur with
      | Some (gx, gmin) when Float.compare gx px <> 0 ->
          (match !best_y with
          | Some b when Float.compare b gmin <= 0 -> ()
          | _ -> best_y := Some gmin);
          cur := Some (px, py)
      | None -> cur := Some (px, py)
      | Some _ -> ());
      let (_, gmin) = Option.get !cur in
      let below_best =
        match !best_y with None -> true | Some b -> Float.compare py b < 0
      in
      flags.(i) <- Float.compare py gmin = 0 && below_best)
    sorted;
  flags

let pareto ~x ~y rel =
  let flags = pareto_flags ~x ~y rel in
  { rel with rrows = List.filteri (fun i _ -> flags.(i)) rel.rrows }

let dominated ~x ~y rel =
  let flags = pareto_flags ~x ~y rel in
  { rel with rrows = List.filteri (fun i _ -> not flags.(i)) rel.rrows }
