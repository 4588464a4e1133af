(** Relational-algebra combinators over {!Table}.

    Results are transient relations: a schema plus materialized rows.
    These are the primitives the SQL layer ({!Sql}) and the ICDB server
    compile their requests into. *)

type rel = {
  rname : string;    (** source table name, kept for error messages *)
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
  | Like of string * string  (** substring match on string columns *)
  | And of pred * pred
  | Or of pred * pred
  | Not of pred

val of_table : Table.t -> rel
(** Snapshot of a table as a relation. *)

val col_index : rel -> string -> int
(** Position of a column in the relation's schema.
    @raise Table.Schema_error if unknown. *)

val empty : Table.t -> rel
(** The table's name and schema with no rows: what a statement's
    columns and predicate are checked against before any row is read. *)

val eval_pred : rel -> pred -> Table.row -> bool
(** [eval_pred rel p] compiles [p] against the relation's schema into a
    row test: every column is resolved to its position once, so an
    unknown column raises here, before any row is tested — even on an
    empty relation. @raise Table.Schema_error naming the relation, the
    missing column, and the available columns. Numeric comparisons
    between [Int] and [Float] coerce to float. Apply it to [rel] and [p]
    once and reuse the closure for every row. *)

val select : pred -> rel -> rel
(** Keep the rows satisfying the predicate (compiled once with
    {!eval_pred}). The kept arrays are the input's own. *)

type access =
  | Scan
  | Probe of {
      ap_col : string;     (** the index column chosen *)
      ap_value : Value.t;  (** the equality literal probed *)
      ap_est : int;        (** estimated rows in the bucket *)
      ap_stats : bool;     (** [true] when the estimate came from
                               {!Table.analyze} statistics rather than
                               an exact bucket length *)
    }
(** The planner's access-path decision for one table predicate: either
    a full scan or an equality probe of one declared index. *)

val plan_access : Table.t -> pred -> access
(** Choose the access path {!select_table} will take, without reading
    any row: each eligible equality conjunct ([Eq] under [And] only)
    that hits a declared index is costed with {!Table.probe_estimate}
    and the smallest estimate wins. This is the plan EXPLAIN renders,
    and calling it does not bump any counter. *)

val run_access : Table.t -> access -> rel
(** Run a chosen access path: the rows it produces {e before} the
    predicate filters them (the whole table for [Scan], one bucket for
    [Probe]), read in place — the arrays are the table's own
    ({!Table.scan}), so a caller must copy any row it hands out. Bumps
    the select counters: this is the execution half of
    {!plan_access}'s decision, split out so EXPLAIN ANALYZE can time
    access and refilter as distinct plan nodes. A [Probe] whose index
    vanished between plan and execution falls back to the scan. *)

val select_table : Table.t -> pred -> rel
(** Like [select p (of_table t)] but with equality-predicate pushdown:
    executes the {!plan_access} decision, so when a top-level [Eq]
    conjunct hits an index declared on [t] ({!Table.create_index}),
    only that bucket is filtered instead of the whole table. Guaranteed
    to return exactly the rows (and row order) of the full scan, as
    copies; rows the predicate rejects are never copied. Bumps
    [reldb.select.indexed] or [reldb.select.scan], plus the chosen
    index's per-index hit counter. *)

val eq_conjuncts : pred -> (string * Value.t) list
(** The [Eq] leaves reachable from the root through [And] nodes only —
    the equalities eligible for index probing. *)

val pred_to_string : pred -> string
(** Stable, fully parenthesized text for a predicate (EXPLAIN's
    [Filter:] lines). *)

val project : string list -> rel -> rel
(** Keep (and reorder to) the named columns. *)

val rename : (string * string) list -> rel -> rel
(** Rename columns, [(old, new)] pairs. *)

val order_by : string -> ?desc:bool -> ?limit:int -> rel -> rel
(** Stable sort on one column. With [~limit:n] only the first [n] rows
    of that order are produced, by a top-[n] selection in an [n]-slot
    heap (ties keep input order) rather than a sort of every row. *)

val distinct : rel -> rel
(** Remove duplicate rows, keeping first occurrences. *)

val limit : int -> rel -> rel

val count : rel -> int

val column_values : rel -> string -> Value.t list
(** All values of one column, in row order. *)

val pareto : x:string -> y:string -> rel -> rel
(** Rows on the Pareto frontier when minimizing both [x] and [y]: no
    other row is <= on both objectives and < on at least one. Rows with
    identical objective values never dominate each other, so duplicate
    optima all survive. Input row order is preserved.
    @raise Table.Schema_error if an objective column is unknown or
    non-numeric. *)

val dominated : x:string -> y:string -> rel -> rel
(** The complement of {!pareto}: rows strictly dominated by some other
    row. Input row order is preserved. *)
