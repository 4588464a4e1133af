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

(* [cmp_values row.(i) v], with the literal's own type matched once
   here instead of per row. *)
let compare_at i v =
  match v with
  | Value.Int k -> (
      fun row ->
        match row.(i) with
        | Value.Int x -> Int.compare x k
        | w -> cmp_values w v)
  | Value.Float f -> (
      fun row ->
        match row.(i) with
        | Value.Float x -> Float.compare x f
        | w -> cmp_values w v)
  | Value.Str _ | Value.Bool _ -> fun row -> cmp_values row.(i) v

(* Compile a predicate: every column is resolved to its position once,
   here, so an unknown column is an error even when no row is ever
   tested, and the closure does no name lookup per row. *)
let rec eval_pred rel p =
  let cmp c v = compare_at (col_index rel c) v in
  match p with
  | True -> fun _ -> true
  | Eq (c, v) -> let f = cmp c v in fun row -> f row = 0
  | Neq (c, v) -> let f = cmp c v in fun row -> f row <> 0
  | Lt (c, v) -> let f = cmp c v in fun row -> f row < 0
  | Le (c, v) -> let f = cmp c v in fun row -> f row <= 0
  | Gt (c, v) -> let f = cmp c v in fun row -> f row > 0
  | Ge (c, v) -> let f = cmp c v in fun row -> f row >= 0
  | Like (c, pat) -> (
      let i = col_index rel c in
      fun row ->
        match row.(i) with
        | Value.Str s -> contains_substring ~needle:pat s
        | Value.Int _ | Value.Float _ | Value.Bool _ -> false)
  | And (a, b) ->
      let fa = eval_pred rel a in
      let fb = eval_pred rel b in
      fun row -> fa row && fb row
  | Or (a, b) ->
      let fa = eval_pred rel a in
      let fb = eval_pred rel b in
      fun row -> fa row || fb row
  | Not a ->
      let fa = eval_pred rel a in
      fun row -> not (fa row)

let select p rel =
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

let empty tbl =
  { rname = Table.name tbl; rschema = Table.schema tbl; rrows = [] }

(* Run a chosen access path: the rows it produces before the predicate
   filters them (the whole table for a scan, one bucket for a probe),
   read in place, not copied. Bumps the select counters — this is the
   execution step, where plan_access is the decision. Kept separate so
   EXPLAIN ANALYZE can time access and refilter as distinct plan
   nodes. *)
let run_access tbl access =
  let base = empty tbl in
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
          { base with rrows = Table.scan tbl })
  | Scan ->
      Icdb_obs.Metrics.incr (Lazy.force c_select_scan);
      { base with rrows = Table.scan tbl }

let select_table tbl p =
  let keep = eval_pred (empty tbl) p in
  let acc = run_access tbl (plan_access tbl p) in
  (* The bucket is a superset of the answer (the equality is one
     conjunct); the full predicate filters it down, so indexed and scan
     execution agree row-for-row. Only the answer is copied. *)
  { acc with
    rrows =
      List.filter_map
        (fun row -> if keep row then Some (Array.copy row) else None)
        acc.rrows }

let project cols rel =
  let idxs = List.map (col_index rel) cols in
  let rschema = List.map (fun i -> List.nth rel.rschema i) idxs in
  let idxs = Array.of_list idxs in
  let take row = Array.map (fun i -> row.(i)) idxs in
  { rel with rschema; rrows = List.map take rel.rrows }

let rename pairs rel =
  let ren (c, ty) =
    match List.assoc_opt c pairs with Some c' -> (c', ty) | None -> (c, ty)
  in
  { rel with rschema = List.map ren rel.rschema }

(* The first [n] rows of [List.stable_sort cmp rows], without sorting
   the rest: a max-heap of at most [n] slots ordered by (key, arrival),
   whose root is the worst row kept. A row displaces the root only when
   its key is strictly smaller; on a tie it arrived later, so the stable
   sort would place it after the root. *)
let top_n cmp n rows =
  let heap = Array.make n [||] and seq = Array.make n 0 in
  let size = ref 0 in
  let worse a b =
    let c = cmp heap.(a) heap.(b) in
    c > 0 || (c = 0 && seq.(a) > seq.(b))
  in
  let swap a b =
    let r = heap.(a) and q = seq.(a) in
    heap.(a) <- heap.(b);
    seq.(a) <- seq.(b);
    heap.(b) <- r;
    seq.(b) <- q
  in
  let rec up k =
    let parent = (k - 1) / 2 in
    if k > 0 && worse k parent then begin
      swap k parent;
      up parent
    end
  in
  let rec down k =
    let l = (2 * k) + 1 in
    if l < !size then begin
      let w = if l + 1 < !size && worse (l + 1) l then l + 1 else l in
      if worse w k then begin
        swap w k;
        down w
      end
    end
  in
  List.iteri
    (fun i row ->
      if !size < n then begin
        heap.(!size) <- row;
        seq.(!size) <- i;
        incr size;
        up (!size - 1)
      end
      else if n > 0 && cmp row heap.(0) < 0 then begin
        heap.(0) <- row;
        seq.(0) <- i;
        down 0
      end)
    rows;
  (* pop the worst row to the front of the answer until none is left *)
  let out = ref [] in
  while !size > 0 do
    out := heap.(0) :: !out;
    decr size;
    heap.(0) <- heap.(!size);
    seq.(0) <- seq.(!size);
    down 0
  done;
  !out

let order_by col ?(desc = false) ?limit rel =
  let i = col_index rel col in
  let cmp a b =
    let c = cmp_values a.(i) b.(i) in
    if desc then -c else c
  in
  let rrows =
    match limit with
    | Some n when n < List.length rel.rrows -> top_n cmp (max 0 n) rel.rrows
    | Some _ | None -> List.stable_sort cmp rel.rrows
  in
  { rel with rrows }

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
   group's minimum. The objectives live in two float arrays and the
   sort permutes row numbers, so nothing is boxed per row. *)
let pareto_flags ~x ~y rel =
  let xi = col_index rel x and yi = col_index rel y in
  let n = List.length rel.rrows in
  let xs = Array.create_float n and ys = Array.create_float n in
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
  List.iteri
    (fun i row ->
      xs.(i) <- num x row.(xi);
      ys.(i) <- num y row.(yi))
    rel.rrows;
  (* a list sort of the row numbers: in OCaml 5.1 it is about twice as
     fast as [Array.stable_sort] (and three times [Array.sort]) here *)
  let order =
    Array.of_list
      (List.stable_sort
         (fun a b ->
           let c = Float.compare xs.(a) xs.(b) in
           if c <> 0 then c else Float.compare ys.(a) ys.(b))
         (List.init n Fun.id))
  in
  let flags = Array.make n false in
  (* min y over the strictly-smaller-x groups, once there is one *)
  let has_best = ref false and best_y = ref 0.0 in
  let gx = ref 0.0 and gmin = ref 0.0 in  (* current x group, its min y *)
  for k = 0 to n - 1 do
    let i = order.(k) in
    let px = xs.(i) and py = ys.(i) in
    if k = 0 then begin
      gx := px;
      gmin := py
    end
    else if Float.compare !gx px <> 0 then begin
      if not (!has_best && Float.compare !best_y !gmin <= 0) then begin
        has_best := true;
        best_y := !gmin
      end;
      gx := px;
      gmin := py
    end;
    let below_best = (not !has_best) || Float.compare py !best_y < 0 in
    flags.(i) <- Float.compare py !gmin = 0 && below_best
  done;
  flags

let pareto ~x ~y rel =
  let flags = pareto_flags ~x ~y rel in
  { rel with rrows = List.filteri (fun i _ -> flags.(i)) rel.rrows }

let dominated ~x ~y rel =
  let flags = pareto_flags ~x ~y rel in
  { rel with rrows = List.filteri (fun i _ -> not flags.(i)) rel.rrows }
