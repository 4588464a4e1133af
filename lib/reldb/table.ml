type schema = (string * Value.ty) list
type row = Value.t array

exception Schema_error of string

(* A secondary hash index over one column. Buckets hold the table's
   physical row arrays in reverse insertion order (same discipline as
   [data]), so a lookup can restore insertion order with one reversal.
   Row arrays are never mutated in place by the table ([update] copies),
   which makes the aliasing between [data] and buckets safe. *)
type index = {
  ix_pos : int;
  ix_buckets : (string, row list) Hashtbl.t;
  ix_hits : Icdb_obs.Metrics.counter;
      (* per-index usage: bumped once per probe the index answers, so
         /metrics can say which indexes earn their maintenance cost *)
}

(* Optimizer statistics for one column, computed by {!analyze}. *)
type col_stats = {
  cs_column : string;
  cs_distinct : int;
  cs_null_frac : float;
  cs_min : Value.t option;
  cs_max : Value.t option;
}

type stats = {
  st_rows : int;
  st_cols : col_stats list;
}

type t = {
  tbl_name : string;
  tbl_schema : schema;
  index : (string, int) Hashtbl.t;  (* column name -> position *)
  mutable data : row list;          (* reverse insertion order *)
  mutable count : int;
  mutable indexes : (string * index) list;  (* column name -> index *)
  mutable tbl_stats : stats option; (* derived state, like indexes: a
                                       snapshot from the last [analyze],
                                       never journaled or persisted *)
}

let schema_err fmt = Printf.ksprintf (fun s -> raise (Schema_error s)) fmt

let create tbl_name tbl_schema =
  if tbl_schema = [] then schema_err "table %s: empty schema" tbl_name;
  let index = Hashtbl.create 16 in
  List.iteri
    (fun i (col, _) ->
      if Hashtbl.mem index col then
        schema_err "table %s: duplicate column %s" tbl_name col;
      Hashtbl.add index col i)
    tbl_schema;
  { tbl_name; tbl_schema; index; data = []; count = 0; indexes = [];
    tbl_stats = None }

let name t = t.tbl_name
let schema t = t.tbl_schema
let cardinality t = t.count

let column_index t col =
  match Hashtbl.find_opt t.index col with
  | Some i -> i
  | None -> schema_err "table %s: no column %s" t.tbl_name col

let check_row t values =
  let arity = List.length t.tbl_schema in
  if List.length values <> arity then
    schema_err "table %s: expected %d values" t.tbl_name arity;
  List.iter2
    (fun (col, ty) v ->
      if Value.ty_of v <> ty then
        schema_err "table %s: column %s expects %s, got %s" t.tbl_name col
          (Value.ty_name ty)
          (Value.ty_name (Value.ty_of v)))
    t.tbl_schema values

(* Index keys must agree with {!Query.cmp_values} equality: all floats
   that compare equal under [Float.compare] share a key. [-0.] and [0.]
   compare equal but print differently under %h, hence the
   normalisation; every NaN payload compares equal to every other. *)
let norm_float f =
  if Float.is_nan f then "nan"
  else if f = 0.0 then "0"
  else Printf.sprintf "%h" f

(* Key of a value already stored in (or type-checked against) a column
   of type [ty]. *)
let key_of_stored ty (v : Value.t) =
  match ty, v with
  | Value.Tint, Value.Int i -> "i" ^ string_of_int i
  | Value.Tfloat, Value.Float f -> "f" ^ norm_float f
  | Value.Tstr, Value.Str s -> "s" ^ s
  | Value.Tbool, Value.Bool b -> if b then "bT" else "bF"
  | _ ->
      (* check_row guarantees stored values match their column type *)
      invalid_arg "Table.key_of_stored: ill-typed stored value"

(* Probe outcome for an equality literal against a column of type [ty].
   [Never] means the scan-side comparison ({!Query.cmp_values}) can
   never return 0, so the exact answer is the empty set. [Unsupported]
   means we cannot model the scan's coercion with a hash key, so the
   caller must fall back to a scan. *)
type probe = Key of string | Never | Unsupported

(* Largest float magnitude at which every integer is exactly
   representable; beyond it int<->float coercion rounds and a hash key
   can no longer mirror [Float.compare (float_of_int x) f]. *)
let exact_int_float = 9007199254740992.0 (* 2^53 *)

let probe_key ty (v : Value.t) =
  match ty, v with
  | Value.Tint, Value.Int _
  | Value.Tfloat, Value.Float _
  | Value.Tstr, Value.Str _
  | Value.Tbool, Value.Bool _ -> Key (key_of_stored ty v)
  | Value.Tfloat, Value.Int i ->
      (* scan compares Float.compare x (float_of_int i) *)
      Key ("f" ^ norm_float (float_of_int i))
  | Value.Tint, Value.Float f ->
      if Float.is_nan f then Never
      else if Float.is_integer f && Float.abs f <= exact_int_float then
        Key ("i" ^ string_of_int (int_of_float f))
      else if Float.is_integer f then Unsupported
      else Never
  | _ -> Never (* cross-type comparisons are never equal *)

let bucket_add ix row =
  let key = key_of_stored (Value.ty_of row.(ix.ix_pos)) row.(ix.ix_pos) in
  let prev = Option.value ~default:[] (Hashtbl.find_opt ix.ix_buckets key) in
  Hashtbl.replace ix.ix_buckets key (row :: prev)

(* Remove one physical row (pointer equality) from its bucket. *)
let bucket_remove ix row =
  let key = key_of_stored (Value.ty_of row.(ix.ix_pos)) row.(ix.ix_pos) in
  match Hashtbl.find_opt ix.ix_buckets key with
  | None -> ()
  | Some rows ->
      let removed = ref false in
      let rows' =
        List.filter
          (fun r ->
            if (not !removed) && r == row then begin
              removed := true;
              false
            end
            else true)
          rows
      in
      if rows' = [] then Hashtbl.remove ix.ix_buckets key
      else Hashtbl.replace ix.ix_buckets key rows'

let hits_counter t col =
  Icdb_obs.Metrics.counter
    (Printf.sprintf "reldb.index.%s.%s.hits" t.tbl_name col)

let build_index t col pos =
  let ix =
    { ix_pos = pos; ix_buckets = Hashtbl.create 256;
      ix_hits = hits_counter t col }
  in
  (* [data] is newest-first; build oldest-first so each bucket ends up
     newest-first, matching the incremental [bucket_add] on insert. *)
  List.iter (bucket_add ix) (List.rev t.data);
  ix

let reindex t =
  t.indexes <-
    List.map (fun (col, ix) -> (col, build_index t col ix.ix_pos)) t.indexes

let create_index t col =
  let pos = column_index t col in
  if not (List.mem_assoc col t.indexes) then
    t.indexes <- (col, build_index t col pos) :: t.indexes

let drop_index t col =
  ignore (column_index t col);
  t.indexes <- List.remove_assoc col t.indexes

let has_index t col = List.mem_assoc col t.indexes
let indexed_columns t = List.rev_map fst t.indexes

let index_lookup t col v =
  match List.assoc_opt col t.indexes with
  | None -> None
  | Some ix -> (
      let (_, ty) = List.nth t.tbl_schema ix.ix_pos in
      match probe_key ty v with
      | Unsupported -> None
      | Never ->
          Icdb_obs.Metrics.incr ix.ix_hits;
          Some []
      | Key key ->
          Icdb_obs.Metrics.incr ix.ix_hits;
          let bucket =
            Option.value ~default:[] (Hashtbl.find_opt ix.ix_buckets key)
          in
          Some (List.rev bucket))

(* How many rows an equality probe would return, without touching the
   bucket's rows: the planner calls this once per candidate index, and
   only the winner is read by {!index_lookup}. When the
   table carries {!analyze} statistics the estimate is
   rows / distinct(col) — O(1), no bucket walk at all — which is what
   lets a skewed-selectivity index lose to a finer one even before any
   bucket is touched. *)
let probe_estimate t col v =
  match List.assoc_opt col t.indexes with
  | None -> None
  | Some ix -> (
      let (_, ty) = List.nth t.tbl_schema ix.ix_pos in
      match probe_key ty v with
      | Unsupported -> None
      | Never -> Some (`Bucket 0)
      | Key key -> (
          let from_stats =
            match t.tbl_stats with
            | None -> None
            | Some st ->
                List.find_map
                  (fun cs ->
                    if String.equal cs.cs_column col && cs.cs_distinct > 0
                    then Some (`Stats (st.st_rows / cs.cs_distinct))
                    else None)
                  st.st_cols
          in
          match from_stats with
          | Some est -> Some est
          | None ->
              Some
                (`Bucket
                   (match Hashtbl.find_opt ix.ix_buckets key with
                    | None -> 0
                    | Some rows -> List.length rows))))

(* ------------------------------------------------------------------ *)
(* Statistics                                                          *)
(* ------------------------------------------------------------------ *)

(* "Null" in a schema with no NULLs: the values a generator leaves
   behind when it has nothing to say — NaN floats and empty strings. *)
let value_is_nullish = function
  | Value.Float f -> Float.is_nan f
  | Value.Str "" -> true
  | _ -> false

let analyze t =
  let ncols = List.length t.tbl_schema in
  let seen = Array.init ncols (fun _ -> Hashtbl.create 64) in
  let nulls = Array.make ncols 0 in
  let mins = Array.make ncols None in
  let maxs = Array.make ncols None in
  List.iter
    (fun row ->
      Array.iteri
        (fun i v ->
          Hashtbl.replace seen.(i) (key_of_stored (Value.ty_of v) v) ();
          if value_is_nullish v then nulls.(i) <- nulls.(i) + 1;
          (match mins.(i) with
           | Some m when Value.compare v m >= 0 -> ()
           | _ -> mins.(i) <- Some v);
          match maxs.(i) with
          | Some m when Value.compare v m <= 0 -> ()
          | _ -> maxs.(i) <- Some v)
        row)
    t.data;
  let rows = t.count in
  let st_cols =
    List.mapi
      (fun i (cs_column, _ty) ->
        { cs_column;
          cs_distinct = Hashtbl.length seen.(i);
          cs_null_frac =
            (if rows = 0 then 0.0
             else float_of_int nulls.(i) /. float_of_int rows);
          cs_min = mins.(i);
          cs_max = maxs.(i) })
      t.tbl_schema
  in
  let st = { st_rows = rows; st_cols } in
  t.tbl_stats <- Some st;
  st

let stats t = t.tbl_stats

let insert t values =
  check_row t values;
  let row = Array.of_list values in
  t.data <- row :: t.data;
  t.count <- t.count + 1;
  List.iter (fun (_, ix) -> bucket_add ix row) t.indexes

let insert_assoc t bindings =
  let lookup (col, _ty) =
    match List.assoc_opt col bindings with
    | Some v -> v
    | None -> schema_err "table %s: column %s not bound" t.tbl_name col
  in
  List.iter
    (fun (col, _) ->
      if not (Hashtbl.mem t.index col) then
        schema_err "table %s: no column %s" t.tbl_name col)
    bindings;
  insert t (List.map lookup t.tbl_schema)

let scan t = List.rev t.data

let rows t = List.rev_map Array.copy t.data

let get row t col = row.(column_index t col)

(* [data] is newest-first, so the fold yields the matches oldest-first;
   only they are copied. *)
let filter t pred =
  List.fold_left
    (fun acc row -> if pred row then Array.copy row :: acc else acc)
    [] t.data

let update t pred assign =
  let updated = ref 0 in
  let apply row =
    if pred row then begin
      incr updated;
      let row' = Array.copy row in
      List.iter
        (fun (col, v) ->
          let i = column_index t col in
          let (_, ty) = List.nth t.tbl_schema i in
          if Value.ty_of v <> ty then
            schema_err "table %s: column %s expects %s" t.tbl_name col
              (Value.ty_name ty);
          row'.(i) <- v)
        (assign row);
      row'
    end
    else row
  in
  t.data <- List.map apply t.data;
  if !updated > 0 then reindex t;
  !updated

let delete t pred =
  let before = t.count in
  t.data <- List.filter (fun r -> not (pred r)) t.data;
  t.count <- List.length t.data;
  if t.count <> before then reindex t;
  before - t.count

(* Remove a single row matching [pred] (the most recently inserted one,
   if several match). Journal replay deletes row-by-row and must not
   collapse duplicates. *)
let delete_one t pred =
  let rec go = function
    | [] -> None
    | row :: rest when pred row -> Some (row, rest)
    | row :: rest ->
        Option.map (fun (hit, l) -> (hit, row :: l)) (go rest)
  in
  match go t.data with
  | Some (hit, data) ->
      t.data <- data;
      t.count <- t.count - 1;
      List.iter (fun (_, ix) -> bucket_remove ix hit) t.indexes;
      true
  | None -> false

let clear t =
  t.data <- [];
  t.count <- 0;
  t.tbl_stats <- None;
  List.iter (fun (_, ix) -> Hashtbl.reset ix.ix_buckets) t.indexes

let copy t =
  let t' =
    { t with
      data = List.map Array.copy t.data;
      index = Hashtbl.copy t.index;
      indexes = t.indexes }
  in
  reindex t';
  t'

let restore t ~from =
  if from.tbl_schema <> t.tbl_schema then
    schema_err "restore: schema mismatch for table %s" t.tbl_name;
  t.data <- List.map Array.copy from.data;
  t.count <- from.count;
  t.tbl_stats <- from.tbl_stats;
  reindex t
