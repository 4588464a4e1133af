(* The list-based read path that compiled predicates, the bounded top-N
   sort and the array-based Pareto classification replaced, frozen as a
   test oracle. The differential property in test_reldb.ml requires the
   engine to return exactly these rows in exactly this order, so this
   file is a specification: do not change it. Relations are the
   library's, so results compare directly. *)

open Icdb_reldb

let no_column (rel : Query.rel) col =
  raise
    (Table.Schema_error
       (Printf.sprintf "table %s: no column %s (columns: %s)" rel.Query.rname
          col
          (String.concat ", " (List.map fst rel.Query.rschema))))

(* Column lookup by a linear walk over the schema, per call. *)
let col_index (rel : Query.rel) col =
  let rec loop i = function
    | [] -> no_column rel col
    | (c, _) :: rest -> if String.equal c col then i else loop (i + 1) rest
  in
  loop 0 rel.Query.rschema

let field rel row col = row.(col_index rel col)

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

(* The interpreter: every row walks the predicate tree and looks each
   column up by name. *)
let rec eval_pred rel p row =
  match p with
  | Query.True -> true
  | Query.Eq (c, v) -> cmp_values (field rel row c) v = 0
  | Query.Neq (c, v) -> cmp_values (field rel row c) v <> 0
  | Query.Lt (c, v) -> cmp_values (field rel row c) v < 0
  | Query.Le (c, v) -> cmp_values (field rel row c) v <= 0
  | Query.Gt (c, v) -> cmp_values (field rel row c) v > 0
  | Query.Ge (c, v) -> cmp_values (field rel row c) v >= 0
  | Query.Like (c, pat) -> (
      match field rel row c with
      | Value.Str s -> contains_substring ~needle:pat s
      | Value.Int _ | Value.Float _ | Value.Bool _ -> false)
  | Query.And (a, b) -> eval_pred rel a row && eval_pred rel b row
  | Query.Or (a, b) -> eval_pred rel a row || eval_pred rel b row
  | Query.Not a -> not (eval_pred rel a row)

let select p (rel : Query.rel) =
  { rel with Query.rrows = List.filter (eval_pred rel p) rel.Query.rrows }

(* Sort every row, then take the first [n]. *)
let order_by col ~desc (rel : Query.rel) =
  let i = col_index rel col in
  let cmp a b =
    let c = cmp_values a.(i) b.(i) in
    if desc then -c else c
  in
  { rel with Query.rrows = List.stable_sort cmp rel.Query.rrows }

let limit n (rel : Query.rel) =
  let rec take k = function
    | [] -> []
    | _ when k = 0 -> []
    | x :: rest -> x :: take (k - 1) rest
  in
  { rel with Query.rrows = take (max 0 n) rel.Query.rrows }

let project cols (rel : Query.rel) =
  let idxs = List.map (col_index rel) cols in
  let rschema = List.map (fun i -> List.nth rel.Query.rschema i) idxs in
  let take row = Array.of_list (List.map (fun i -> row.(i)) idxs) in
  { rel with Query.rschema; rrows = List.map take rel.Query.rrows }

(* Pareto classification over a list of boxed (row number, x, y)
   tuples, stable-sorted by (x, y), then one sweep. *)
let pareto_flags ~x ~y (rel : Query.rel) =
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
                rel.Query.rname col
                (Value.ty_name (Value.ty_of v))))
  in
  let pts =
    List.mapi (fun i row -> (i, num x row.(xi), num y row.(yi))) rel.Query.rrows
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

let frontier ~keep ~x ~y (rel : Query.rel) =
  let flags = pareto_flags ~x ~y rel in
  { rel with
    Query.rrows = List.filteri (fun i _ -> flags.(i) = keep) rel.Query.rrows }

type shape =
  | Select of string list option  (* projection; None = * *)
  | Pareto of string * string
  | Dominated of string * string

(* A read statement over a copy of the whole table, stage by stage in
   the engine's documented order: filter, frontier, sort, limit,
   project. *)
let run tbl ~shape ~pred ~order ~lim =
  let rel = select pred (Query.of_table tbl) in
  let rel =
    match shape with
    | Pareto (x, y) -> frontier ~keep:true ~x ~y rel
    | Dominated (x, y) -> frontier ~keep:false ~x ~y rel
    | Select _ -> rel
  in
  let rel =
    match order with Some (col, desc) -> order_by col ~desc rel | None -> rel
  in
  let rel = match lim with Some n -> limit n rel | None -> rel in
  match shape with Select (Some cols) -> project cols rel | _ -> rel
