(** In-memory relations with named, typed columns.

    A table owns its schema and rows. Rows are value arrays in schema
    order; all mutating operations type-check values against the schema.
    Row order is insertion order (stable), as synthesis tools rely on
    deterministic listings. *)

type schema = (string * Value.ty) list
(** Column names with their types, in column order. Names are unique. *)

type row = Value.t array

type t

exception Schema_error of string
(** Raised on arity/type mismatches, duplicate or unknown columns. *)

val create : string -> schema -> t
(** [create name schema] is an empty table.
    @raise Schema_error on duplicate column names or an empty schema. *)

val name : t -> string
val schema : t -> schema
val cardinality : t -> int

val column_index : t -> string -> int
(** Position of a column. @raise Schema_error if unknown. *)

val insert : t -> Value.t list -> unit
(** Append a row. @raise Schema_error on arity or type mismatch. *)

val insert_assoc : t -> (string * Value.t) list -> unit
(** Append a row given as column bindings; every column must be bound. *)

val rows : t -> row list
(** All rows in insertion order. The arrays are copies: mutating them
    does not affect the table. *)

val scan : t -> row list
(** All rows in insertion order, without copying: the arrays are the
    table's own. The table never mutates a row array in place
    ([update] replaces it), so the list stays a faithful snapshot, but a
    caller must not mutate the arrays and must copy any row that leaves
    its hands. This is the read path of the query engine, which copies
    only the rows a statement returns. *)

val get : row -> t -> string -> Value.t
(** [get row t col] is the field of [row] at column [col] of [t]. *)

val filter : t -> (row -> bool) -> row list
(** Copies of the rows satisfying a predicate, in order. *)

val update : t -> (row -> bool) -> (row -> (string * Value.t) list) -> int
(** [update t pred assign] rewrites the given columns of each matching
    row; returns the number of rows updated. *)

val delete : t -> (row -> bool) -> int
(** Remove matching rows; returns the number removed. *)

val delete_one : t -> (row -> bool) -> bool
(** Remove a single matching row (the most recently inserted one if
    several match); [false] when none matched. Journal replay deletes
    row-by-row and must not collapse duplicate rows. *)

val clear : t -> unit

(** {2 Secondary indexes}

    A table may carry hash indexes over individual columns. Indexes are
    derived, in-memory state: they are not persisted or journaled, and a
    freshly recovered table has none — callers re-declare them after
    recovery. Every mutating operation keeps declared indexes exact. *)

val create_index : t -> string -> unit
(** Declare (and immediately build) a hash index on a column. Idempotent
    when the index already exists.
    @raise Schema_error if the column is unknown. *)

val drop_index : t -> string -> unit
(** Remove the index on a column, if any.
    @raise Schema_error if the column is unknown. *)

val has_index : t -> string -> bool

val indexed_columns : t -> string list
(** Columns with an index, in declaration order. *)

val index_lookup : t -> string -> Value.t -> row list option
(** [index_lookup t col v] is [Some rows] — the exact set of rows whose
    [col] field equals [v] under the query layer's numeric-coercing
    equality, in insertion order — when [col] has an index and the
    lookup key can model that equality; [None] when there is no index
    on [col] or the literal cannot be hashed faithfully (the caller
    must fall back to a scan). Like {!scan}, the arrays are the table's
    own, not copies. Every answered lookup bumps the index's
    [reldb.index.<table>.<col>.hits] counter. *)

val probe_estimate :
  t -> string -> Value.t -> [ `Stats of int | `Bucket of int ] option
(** How many rows [index_lookup t col v] would return, without reading
    (or, with statistics, even touching) the bucket. [`Stats n] is the
    rows/distinct estimate from the last {!analyze}; [`Bucket n] is the
    exact bucket length when no statistics exist. [None] exactly when
    {!index_lookup} would return [None]. Does not count as an index
    hit. *)

(** {2 Statistics}

    Optimizer statistics, in the spirit of [ANALYZE]: a per-table
    snapshot of row count and per-column distinct count, min/max, and
    null fraction ("null" meaning NaN floats and empty strings — the
    schema has no NULL). Like indexes they are derived, in-memory
    state: never journaled or persisted, absent on a freshly recovered
    table until somebody runs {!analyze} again. They are consulted by
    the query planner ({!Query.select_table}) when choosing among
    candidate equality indexes. *)

type col_stats = {
  cs_column : string;
  cs_distinct : int;        (** distinct values actually present *)
  cs_null_frac : float;     (** fraction of NaN / empty-string fields *)
  cs_min : Value.t option;  (** [None] on an empty table *)
  cs_max : Value.t option;
}

type stats = {
  st_rows : int;
  st_cols : col_stats list;  (** in schema column order *)
}

val analyze : t -> stats
(** Compute fresh statistics over the current rows and install them on
    the table (one O(rows x cols) pass). *)

val stats : t -> stats option
(** The snapshot installed by the last {!analyze}, if any. Statistics
    go stale silently as the table mutates — they are estimates, and
    the planner only uses them to rank candidate buckets, never to
    decide membership. *)

val copy : t -> t
(** Deep copy (used by transaction snapshots). *)

val restore : t -> from:t -> unit
(** Overwrite the contents of a table with those of a snapshot that has
    the same schema. *)
