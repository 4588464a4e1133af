type result =
  | Relation of Query.rel
  | Affected of int

exception Sql_error of string

let sql_err fmt = Printf.ksprintf (fun s -> raise (Sql_error s)) fmt

(* ------------------------------------------------------------------ *)
(* Lexing                                                              *)
(* ------------------------------------------------------------------ *)

type token =
  | Word of string   (* keyword or identifier; keywords matched case-insensitively *)
  | Str_lit of string
  | Num of string
  | Punct of char    (* ( ) , *  *)
  | Op of string     (* = != <> < <= > >= *)

let is_ident_char c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
  || c = '_'

let tokenize s =
  let n = String.length s in
  let toks = ref [] in
  let push t = toks := t :: !toks in
  let rec loop i =
    if i >= n then ()
    else
      match s.[i] with
      | ' ' | '\t' | '\n' | '\r' -> loop (i + 1)
      | '(' | ')' | ',' | '*' -> push (Punct s.[i]); loop (i + 1)
      | '\'' ->
          let buf = Buffer.create 16 in
          let rec str j =
            if j >= n then sql_err "unterminated string literal"
            else if s.[j] = '\'' then
              (* '' inside a literal is an escaped quote *)
              if j + 1 < n && s.[j + 1] = '\'' then begin
                Buffer.add_char buf '\'';
                str (j + 2)
              end
              else j + 1
            else begin
              Buffer.add_char buf s.[j];
              str (j + 1)
            end
          in
          let j = str (i + 1) in
          push (Str_lit (Buffer.contents buf));
          loop j
      | '=' -> push (Op "="); loop (i + 1)
      | '!' when i + 1 < n && s.[i + 1] = '=' -> push (Op "!="); loop (i + 2)
      | '<' when i + 1 < n && s.[i + 1] = '>' -> push (Op "!="); loop (i + 2)
      | '<' when i + 1 < n && s.[i + 1] = '=' -> push (Op "<="); loop (i + 2)
      | '<' -> push (Op "<"); loop (i + 1)
      | '>' when i + 1 < n && s.[i + 1] = '=' -> push (Op ">="); loop (i + 2)
      | '>' -> push (Op ">"); loop (i + 1)
      | c when (c >= '0' && c <= '9') || c = '-' || c = '.' ->
          let j = ref i in
          incr j;
          while !j < n && ((s.[!j] >= '0' && s.[!j] <= '9') || s.[!j] = '.'
                           || s.[!j] = 'e' || s.[!j] = 'E' || s.[!j] = '-')
          do incr j done;
          push (Num (String.sub s i (!j - i)));
          loop !j
      | c when is_ident_char c ->
          let j = ref i in
          while !j < n && is_ident_char s.[!j] do incr j done;
          push (Word (String.sub s i (!j - i)));
          loop !j
      | c -> sql_err "unexpected character %c" c
  in
  loop 0;
  List.rev !toks

let kw_eq w kw = String.lowercase_ascii w = kw

(* ------------------------------------------------------------------ *)
(* Literal quoting                                                     *)
(* ------------------------------------------------------------------ *)

(* Every statement assembled with Printf.sprintf must pass dynamic
   strings through here: embedded quotes are doubled so the value can
   never escape the literal and splice into the statement. *)
let quote_string s =
  let buf = Buffer.create (String.length s + 2) in
  Buffer.add_char buf '\'';
  String.iter
    (fun c ->
      if c = '\'' then Buffer.add_string buf "''" else Buffer.add_char buf c)
    s;
  Buffer.add_char buf '\'';
  Buffer.contents buf

(* A typed value as a SQL literal. *)
let quote = function
  | Value.Str s -> quote_string s
  | Value.Int i -> string_of_int i
  | Value.Float f -> Printf.sprintf "%.17g" f
  | Value.Bool b -> string_of_bool b

(* ------------------------------------------------------------------ *)
(* Statement fingerprints                                              *)
(* ------------------------------------------------------------------ *)

(* pg_stat_statements-style normalization over the token stream:
   keywords and identifiers lowercase, every literal replaced by [?],
   whitespace canonicalized — so "SELECT x FROM t WHERE id = 3" and
   "select x from t where id=4" share one fingerprint. *)
let fingerprint_of_tokens toks =
  String.concat " "
    (List.map
       (function
         | Word w -> String.lowercase_ascii w
         | Str_lit _ | Num _ -> "?"
         | Punct c -> String.make 1 c
         | Op o -> o)
       toks)

let fingerprint stmt =
  match tokenize stmt with
  | toks -> fingerprint_of_tokens toks
  | exception Sql_error _ -> String.trim stmt

(* ------------------------------------------------------------------ *)
(* Parsing                                                             *)
(* ------------------------------------------------------------------ *)

let parse_literal = function
  | Str_lit s :: rest -> (Value.Str s, rest)
  | Num n :: rest ->
      let v =
        if String.contains n '.' || String.contains n 'e'
           || String.contains n 'E'
        then Option.map (fun f -> Value.Float f) (float_of_string_opt n)
        else Option.map (fun i -> Value.Int i) (int_of_string_opt n)
      in
      (match v with
       | Some v -> (v, rest)
       | None -> sql_err "malformed or out-of-range number %s" n)
  | Word w :: rest when kw_eq w "true" -> (Value.Bool true, rest)
  | Word w :: rest when kw_eq w "false" -> (Value.Bool false, rest)
  | _ -> sql_err "expected a literal"

let rec parse_or toks =
  let left, toks = parse_and toks in
  match toks with
  | Word w :: rest when kw_eq w "or" ->
      let right, rest = parse_or rest in
      (Query.Or (left, right), rest)
  | _ -> (left, toks)

and parse_and toks =
  let left, toks = parse_not toks in
  match toks with
  | Word w :: rest when kw_eq w "and" ->
      let right, rest = parse_and rest in
      (Query.And (left, right), rest)
  | _ -> (left, toks)

and parse_not = function
  | Word w :: rest when kw_eq w "not" ->
      let p, rest = parse_not rest in
      (Query.Not p, rest)
  | Punct '(' :: rest -> (
      let p, rest = parse_or rest in
      match rest with
      | Punct ')' :: rest -> (p, rest)
      | _ -> sql_err "expected )")
  | Word col :: Op op :: rest ->
      let lit, rest = parse_literal rest in
      let atom =
        match op with
        | "=" -> Query.Eq (col, lit)
        | "!=" -> Query.Neq (col, lit)
        | "<" -> Query.Lt (col, lit)
        | "<=" -> Query.Le (col, lit)
        | ">" -> Query.Gt (col, lit)
        | ">=" -> Query.Ge (col, lit)
        | op -> sql_err "unknown operator %s" op
      in
      (atom, rest)
  | Word col :: Word w :: rest when kw_eq w "like" -> (
      match rest with
      | Str_lit pat :: rest -> (Query.Like (col, pat), rest)
      | _ -> sql_err "LIKE expects a string literal")
  | _ -> sql_err "malformed condition"

let parse_where toks =
  match toks with
  | Word w :: rest when kw_eq w "where" -> parse_or rest
  | _ -> (Query.True, toks)

let rec parse_column_list acc = function
  | Word col :: Punct ',' :: rest -> parse_column_list (col :: acc) rest
  | Word col :: rest -> (List.rev (col :: acc), rest)
  | _ -> sql_err "expected a column name"

(* A parsed read query — the shared description SELECT and
   PARETO/DOMINATED compile to, and the unit the planner works on. *)
type qshape =
  | Q_select of string list option  (* projection; None = * *)
  | Q_frontier of [ `Pareto | `Dominated ] * string * string

type qdesc = {
  q_shape : qshape;
  q_table : string;
  q_pred : Query.pred;
  q_order : (string * bool) option;  (* column, DESC? *)
  q_limit : int option;
}

let parse_limit toks =
  match toks with
  | Word l :: Num n :: rest when kw_eq l "limit" -> (
      match int_of_string_opt n with
      | Some k when k >= 0 -> (Some k, rest)
      | _ -> sql_err "LIMIT expects a non-negative integer, got %s" n)
  | _ -> (None, toks)

(* After the SELECT keyword. *)
let parse_select rest =
  let cols, rest =
    match rest with
    | Punct '*' :: rest -> (None, rest)
    | rest ->
        let cols, rest = parse_column_list [] rest in
        (Some cols, rest)
  in
  match rest with
  | Word f :: Word tbl :: rest when kw_eq f "from" ->
      let pred, rest = parse_where rest in
      let order, rest =
        match rest with
        | Word o :: Word b :: Word col :: rest
          when kw_eq o "order" && kw_eq b "by" -> (
            match rest with
            | Word d :: rest when kw_eq d "desc" -> (Some (col, true), rest)
            | rest -> (Some (col, false), rest))
        | rest -> (None, rest)
      in
      let lim, rest = parse_limit rest in
      if rest <> [] then sql_err "trailing tokens after SELECT";
      { q_shape = Q_select cols; q_table = tbl; q_pred = pred;
        q_order = order; q_limit = lim }
  | _ -> sql_err "expected FROM <table>"

(* After the PARETO / DOMINATED keyword. *)
let parse_frontier kind rest =
  let kname = match kind with `Pareto -> "PARETO" | `Dominated -> "DOMINATED" in
  match rest with
  | Word tbl :: Word o :: rest when kw_eq o "on" -> (
      match rest with
      | Word colx :: Punct ',' :: Word coly :: rest ->
          let pred, rest = parse_where rest in
          let lim, rest = parse_limit rest in
          if rest <> [] then sql_err "trailing tokens after %s" kname;
          { q_shape = Q_frontier (kind, colx, coly); q_table = tbl;
            q_pred = pred; q_order = None; q_limit = lim }
      | _ -> sql_err "expected <colx>, <coly> after %s <table> ON" kname)
  | _ -> sql_err "expected %s <table> ON <colx>, <coly>" kname

(* ------------------------------------------------------------------ *)
(* Planning and execution of read queries                              *)
(* ------------------------------------------------------------------ *)

(* Compile a query description against a table: the plan value EXPLAIN
   renders, the access decision, and the post-access stages in
   execution order, each paired with its plan step so EXPLAIN ANALYZE
   can attach per-step actuals. Building a plan reads no rows and bumps
   no counters. *)
let build_query tbl q =
  let tname = Table.name tbl in
  (* validate every referenced column against the schema up front:
     EXPLAIN never reads rows, but a typo'd column — in the predicate,
     projection, ORDER BY, or frontier axes — must still be an error,
     not a plausible-looking plan. Compiling the predicate checks its
     columns, and the Filter stage runs that one compiled closure. *)
  let empty = Query.empty tbl in
  let keep = Query.eval_pred empty q.q_pred in
  let check col = ignore (Query.col_index empty col) in
  (match q.q_shape with
  | Q_select (Some cols) -> List.iter check cols
  | Q_frontier (_, x, y) -> check x; check y
  | Q_select None -> ());
  (match q.q_order with Some (col, _) -> check col | None -> ());
  let access = Query.plan_access tbl q.q_pred in
  let access_step, kind, column =
    match access with
    | Query.Probe { ap_col; ap_value; ap_est; ap_stats } ->
        ( Plan.step
            ~detail:
              (Printf.sprintf "%s = %s (est %d rows via %s)" ap_col
                 (quote ap_value) ap_est
                 (if ap_stats then "stats" else "bucket"))
            (Printf.sprintf "Index Probe on %s" tname),
          `Indexed, Some ap_col )
    | Query.Scan ->
        (Plan.step (Printf.sprintf "Seq Scan on %s" tname), `Scan, None)
  in
  let rev_stages = ref [] in
  let add step f = rev_stages := (step, f) :: !rev_stages in
  (match q.q_pred with
  | Query.True -> ()
  | p ->
      add (Plan.step "Filter" ~detail:(Query.pred_to_string p)) (fun rel ->
          { rel with Query.rrows = List.filter keep rel.Query.rrows }));
  (match q.q_shape with
  | Q_frontier (`Pareto, x, y) ->
      add (Plan.step "Pareto Frontier"
             ~detail:(Printf.sprintf "minimize (%s, %s)" x y))
        (Query.pareto ~x ~y)
  | Q_frontier (`Dominated, x, y) ->
      add (Plan.step "Dominated Set"
             ~detail:(Printf.sprintf "minimize (%s, %s)" x y))
        (Query.dominated ~x ~y)
  | Q_select _ -> ());
  (* a LIMIT after ORDER BY bounds the sort itself: it keeps the first
     n rows in an n-slot heap instead of sorting every survivor *)
  (match q.q_order with
  | Some (col, desc) ->
      add (Plan.step "Sort" ~detail:(if desc then col ^ " DESC" else col))
        (Query.order_by col ~desc ?limit:q.q_limit)
  | None -> ());
  (match q.q_limit with
  | Some n -> add (Plan.step "Limit" ~detail:(string_of_int n))
                (Query.limit n)
  | None -> ());
  (* Project last so ORDER BY may reference unselected columns. *)
  (match q.q_shape with
  | Q_select (Some cols) ->
      add (Plan.step "Project" ~detail:(String.concat ", " cols))
        (Query.project cols)
  | Q_select None | Q_frontier _ -> ());
  let stages = List.rev !rev_stages in
  let plan =
    { Plan.p_table = tname; p_kind = kind; p_column = column;
      p_steps = access_step :: List.map fst stages }
  in
  (plan, access, access_step, stages)

let ms_between t0 t1 = float_of_int (t1 - t0) *. 1e-6

(* Execute a query description. [timed] is EXPLAIN ANALYZE: each plan
   step additionally gets actual rows in/out and wall time (a couple of
   clock reads and a row count per step — plain execution pays none of
   it), on the same path plain execution takes. The access step reads
   the table's rows in place; the answer is copied once, at the end,
   unless a projection already built fresh rows. *)
let run_query db q ~timed =
  let tbl = Db.table db q.q_table in
  let plan, access, access_step, stages = build_query tbl q in
  let clock () = if timed then Icdb_obs.Clock.now_ns () else 0 in
  let t0 = clock () in
  let rel0 = Query.run_access tbl access in
  let t1 = clock () in
  (* thread each stage's output count into the next stage's input so a
     row list is only ever counted once; a scan's output is the whole
     table, so its count is O(1) *)
  let n0 =
    if not timed then 0
    else
      match access with
      | Query.Scan -> Table.cardinality tbl
      | Query.Probe _ -> Query.count rel0
  in
  if timed then
    Plan.actuals access_step ~rows_in:(Table.cardinality tbl) ~rows_out:n0
      ~ms:(ms_between t0 t1);
  let rel, _ =
    List.fold_left
      (fun (rel, n_in) (step, f) ->
        let t0 = clock () in
        let out = f rel in
        let t1 = clock () in
        if timed then begin
          let n_out = Query.count out in
          Plan.actuals step ~rows_in:n_in ~rows_out:n_out
            ~ms:(ms_between t0 t1);
          (out, n_out)
        end
        else (out, n_in))
      (rel0, n0) stages
  in
  let rel =
    match q.q_shape with
    | Q_select (Some _) -> rel
    | Q_select None | Q_frontier _ ->
        { rel with Query.rrows = List.map Array.copy rel.Query.rrows }
  in
  (rel, plan)

(* The EXPLAIN result relation: one [plan] column, one row per rendered
   plan line. *)
let explain_rel plan =
  { Query.rname = "explain";
    rschema = [ ("plan", Value.Tstr) ];
    rrows = List.map (fun l -> [| Value.Str l |]) (Plan.render plan) }

let query_stats_rel () =
  let entries = Qstats.snapshot () in
  { Query.rname = "query_stats";
    rschema =
      [ ("fingerprint", Value.Tstr); ("plan", Value.Tstr);
        ("calls", Value.Tint); ("rows", Value.Tint);
        ("total_ms", Value.Tfloat); ("max_ms", Value.Tfloat) ];
    rrows =
      List.map
        (fun e ->
          [| Value.Str e.Qstats.qs_fingerprint; Value.Str e.Qstats.qs_plan;
             Value.Int e.Qstats.qs_calls; Value.Int e.Qstats.qs_rows;
             Value.Float (e.Qstats.qs_total_s *. 1e3);
             Value.Float (e.Qstats.qs_max_s *. 1e3) |])
        entries }

(* ------------------------------------------------------------------ *)
(* Statement dispatch                                                  *)
(* ------------------------------------------------------------------ *)

let parse_query = function
  | Word w :: rest when kw_eq w "select" -> parse_select rest
  | Word w :: rest when kw_eq w "pareto" -> parse_frontier `Pareto rest
  | Word w :: rest when kw_eq w "dominated" -> parse_frontier `Dominated rest
  | _ -> sql_err "EXPLAIN supports SELECT, PARETO and DOMINATED"

(* Run one tokenized statement. Returns the result, the executed
   query's plan (when there is one), the plan label for the statement
   stats, and whether the statement should be recorded there at all
   (QUERY STATS itself is not, so inspecting the stats plane does not
   pollute it). *)
let exec_toks db toks =
  match toks with
  | Word w :: rest when kw_eq w "explain" -> (
      let analyze, rest =
        match rest with
        | Word a :: rest' when kw_eq a "analyze" -> (true, rest')
        | _ -> (false, rest)
      in
      let q = parse_query rest in
      if analyze then begin
        (* Execute for real — counters, timings and row counts are the
           point — but return the annotated plan, not the rows. *)
        let _rel, plan = run_query db q ~timed:true in
        (Relation (explain_rel plan), Some plan, Plan.summary plan, true)
      end
      else
        let tbl = Db.table db q.q_table in
        let plan, _, _, _ = build_query tbl q in
        (Relation (explain_rel plan), Some plan, "explain", true))
  | Word w :: rest when kw_eq w "analyze" ->
      let tables =
        match rest with
        | [] -> Db.table_names db
        | [ Word tbl ] -> [ tbl ]
        | _ -> sql_err "expected ANALYZE [table]"
      in
      List.iter (fun name -> ignore (Table.analyze (Db.table db name))) tables;
      (Affected (List.length tables), None, "ddl", true)
  | Word q :: Word s :: rest when kw_eq q "query" && kw_eq s "stats" -> (
      match rest with
      | [] -> (Relation (query_stats_rel ()), None, "", false)
      | [ Word r ] when kw_eq r "reset" ->
          (Affected (Qstats.reset ()), None, "", false)
      | _ -> sql_err "expected QUERY STATS [RESET]")
  | Word w :: rest when kw_eq w "select" ->
      let q = parse_select rest in
      let rel, plan = run_query db q ~timed:false in
      (Relation rel, Some plan, Plan.summary plan, true)
  | Word w :: rest when kw_eq w "pareto" || kw_eq w "dominated" ->
      let kind = if kw_eq w "pareto" then `Pareto else `Dominated in
      let q = parse_frontier kind rest in
      let rel, plan = run_query db q ~timed:false in
      (Relation rel, Some plan, Plan.summary plan, true)
  | Word w :: Word i :: Word tbl_name :: rest
    when kw_eq w "insert" && kw_eq i "into" -> (
      let tbl = Db.table db tbl_name in
      match rest with
      | Word v :: Punct '(' :: rest when kw_eq v "values" ->
          let rec values acc rest =
            let lit, rest = parse_literal rest in
            match rest with
            | Punct ',' :: rest -> values (lit :: acc) rest
            | Punct ')' :: rest -> (List.rev (lit :: acc), rest)
            | _ -> sql_err "expected , or ) in VALUES"
          in
          let vals, rest = values [] rest in
          if rest <> [] then sql_err "trailing tokens after INSERT";
          Table.insert tbl vals;
          (Affected 1, None, "write", true)
      | _ -> sql_err "expected VALUES (...)")
  | Word w :: Word tbl_name :: Word s :: rest
    when kw_eq w "update" && kw_eq s "set" ->
      let tbl = Db.table db tbl_name in
      let rec assigns acc = function
        | Word col :: Op "=" :: rest ->
            let lit, rest = parse_literal rest in
            let acc = (col, lit) :: acc in
            (match rest with
             | Punct ',' :: rest -> assigns acc rest
             | rest -> (List.rev acc, rest))
        | _ -> sql_err "expected col = literal in SET"
      in
      let sets, rest = assigns [] rest in
      let pred, rest = parse_where rest in
      if rest <> [] then sql_err "trailing tokens after UPDATE";
      let n =
        Table.update tbl (Query.eval_pred (Query.empty tbl) pred)
          (fun _ -> sets)
      in
      (Affected n, None, "write", true)
  | Word w :: Word f :: Word tbl_name :: rest
    when kw_eq w "delete" && kw_eq f "from" ->
      let tbl = Db.table db tbl_name in
      let pred, rest = parse_where rest in
      if rest <> [] then sql_err "trailing tokens after DELETE";
      let n = Table.delete tbl (Query.eval_pred (Query.empty tbl) pred) in
      (Affected n, None, "write", true)
  | Word w :: Word i :: Word o :: Word tbl_name :: rest
    when kw_eq w "create" && kw_eq i "index" && kw_eq o "on" -> (
      let tbl = Db.table db tbl_name in
      match rest with
      | Punct '(' :: Word col :: Punct ')' :: [] ->
          Table.create_index tbl col;
          (Affected 0, None, "ddl", true)
      | _ -> sql_err "expected (column) after CREATE INDEX ON <table>")
  | Word w :: Word i :: Word o :: Word tbl_name :: rest
    when kw_eq w "drop" && kw_eq i "index" && kw_eq o "on" -> (
      let tbl = Db.table db tbl_name in
      match rest with
      | Punct '(' :: Word col :: Punct ')' :: [] ->
          Table.drop_index tbl col;
          (Affected 0, None, "ddl", true)
      | _ -> sql_err "expected (column) after DROP INDEX ON <table>")
  | _ -> sql_err "unsupported statement"

let exec_explained db stmt =
  let toks = tokenize stmt in
  let t0 = Icdb_obs.Clock.now_ns () in
  let result, plan, qplan, record = exec_toks db toks in
  let t1 = Icdb_obs.Clock.now_ns () in
  if record then begin
    let rows =
      match result with Relation r -> Query.count r | Affected n -> n
    in
    Qstats.record ~fingerprint:(fingerprint_of_tokens toks) ~plan:qplan
      ~rows ~seconds:(Icdb_obs.Clock.ns_to_s (t1 - t0))
  end;
  (result, plan)

let exec db stmt = fst (exec_explained db stmt)

let select db stmt =
  match exec db stmt with
  | Relation rel -> rel
  | Affected _ -> sql_err "expected a SELECT statement"
