exception Db_error of string

type t = {
  tables : (string, Table.t) Hashtbl.t;
  mutable snapshots : (string * Table.t) list list;  (* stack of table copies *)
  mutable journal : Journal.t option;  (* write-ahead journal, if attached *)
}

let db_err fmt = Printf.ksprintf (fun s -> raise (Db_error s)) fmt

let create () = { tables = Hashtbl.create 16; snapshots = []; journal = None }

(* ------------------------------------------------------------------ *)
(* Journaling                                                          *)
(* ------------------------------------------------------------------ *)

(* Once attached, every mutation made through the journaled operations
   below ([create_table], [insert], [delete_where], the transaction
   marks) is logged; [replay_journal] re-applies the log after a crash.
   Mutations made directly through [Table] bypass the journal — callers
   that care about durability must go through this module. *)
let attach_journal t j = t.journal <- Some j

let detach_journal t = t.journal <- None

let journal t = t.journal

let journal_entry t e =
  match t.journal with None -> () | Some j -> Journal.append j e

let create_table t name schema =
  if Hashtbl.mem t.tables name then db_err "table %s already exists" name;
  let tbl = Table.create name schema in
  Hashtbl.add t.tables name tbl;
  journal_entry t (Journal.Create (name, schema));
  tbl

let table_opt t name = Hashtbl.find_opt t.tables name

let table t name =
  match table_opt t name with
  | Some tbl -> tbl
  | None -> db_err "no table %s" name

let drop_table t name =
  if not (Hashtbl.mem t.tables name) then db_err "no table %s" name;
  Hashtbl.remove t.tables name;
  journal_entry t (Journal.Drop name)

(* Journaled row operations. The mutation is applied first (so schema
   errors surface before anything reaches the log), then recorded. A
   crash between the two loses only the operation in flight, which is
   exactly the contract recovery provides. *)

let insert t name values =
  Table.insert (table t name) values;
  journal_entry t (Journal.Insert (name, values))

let delete_where t name pred =
  let tbl = table t name in
  let victims = Table.filter tbl pred in
  let n = Table.delete tbl pred in
  List.iter
    (fun row -> journal_entry t (Journal.Delete (name, Array.to_list row)))
    victims;
  n

(* Application-level transaction marks (App B §7): entries recorded
   between an uncommitted [mark_tx_begin] and the end of the journal are
   rolled back by [replay_journal]. These are independent of the
   in-memory snapshot transactions below, which are not journaled. *)

let mark_tx_begin t tag = journal_entry t (Journal.Tx_begin tag)

let mark_tx_commit t tag = journal_entry t (Journal.Tx_commit tag)

let table_names t =
  Hashtbl.fold (fun name _ acc -> name :: acc) t.tables []
  |> List.sort String.compare

let begin_tx t =
  let snap =
    Hashtbl.fold (fun name tbl acc -> (name, Table.copy tbl) :: acc) t.tables []
  in
  t.snapshots <- snap :: t.snapshots

let commit t =
  match t.snapshots with
  | [] -> db_err "commit: no active transaction"
  | _ :: rest -> t.snapshots <- rest

let rollback t =
  match t.snapshots with
  | [] -> db_err "rollback: no active transaction"
  | snap :: rest ->
      (* Tables created during the transaction are dropped; snapshotted
         tables are restored. *)
      let snap_names = List.map fst snap in
      let current = table_names t in
      List.iter
        (fun name ->
          if not (List.mem name snap_names) then Hashtbl.remove t.tables name)
        current;
      List.iter
        (fun (name, copy) ->
          match Hashtbl.find_opt t.tables name with
          | Some tbl -> Table.restore tbl ~from:copy
          | None -> Hashtbl.add t.tables name copy)
        snap;
      t.snapshots <- rest

let in_tx t = t.snapshots <> []

let with_tx t f =
  begin_tx t;
  match f () with
  | result ->
      commit t;
      result
  | exception e ->
      rollback t;
      raise e

(* Persistence format, line-oriented:
     TABLE <name>
     COL <name> <ty>
     ROW
     <encoded value>        (one per column)
     END                    (end of table)  *)

let save t path =
  (* write-to-temp + rename: a crash mid-save never clobbers the last
     good snapshot *)
  let tmp = path ^ ".tmp" in
  let oc = open_out tmp in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter
        (fun name ->
          let tbl = table t name in
          Printf.fprintf oc "TABLE %s\n" name;
          List.iter
            (fun (col, ty) ->
              Printf.fprintf oc "COL %s %s\n" col (Value.ty_name ty))
            (Table.schema tbl);
          List.iter
            (fun row ->
              output_string oc "ROW\n";
              Array.iter
                (fun v ->
                  output_string oc (Value.encode v);
                  output_char oc '\n')
                row)
            (Table.scan tbl);
          output_string oc "END\n")
        (table_names t));
  Sys.rename tmp path

let ty_of_name = function
  | "int" -> Value.Tint
  | "float" -> Value.Tfloat
  | "string" -> Value.Tstr
  | "bool" -> Value.Tbool
  | s -> db_err "unknown type %s" s

let load path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let t = create () in
      let lines = ref [] in
      (try
         while true do
           lines := input_line ic :: !lines
         done
       with End_of_file -> ());
      let lines = List.rev !lines in
      let rec parse_tables = function
        | [] -> ()
        | line :: rest when String.length line > 6 && String.sub line 0 6 = "TABLE " ->
            let name = String.sub line 6 (String.length line - 6) in
            parse_cols name [] rest
        | "" :: rest -> parse_tables rest
        | line :: _ -> db_err "load: expected TABLE, got %S" line
      and parse_cols name cols = function
        | line :: rest when String.length line > 4 && String.sub line 0 4 = "COL " -> (
            match String.split_on_char ' ' line with
            | [ "COL"; col; ty ] -> parse_cols name ((col, ty_of_name ty) :: cols) rest
            | _ -> db_err "load: malformed column line %S" line)
        | rest ->
            let tbl = create_table t name (List.rev cols) in
            parse_rows tbl (List.length cols) rest
      and parse_rows tbl arity = function
        | "ROW" :: rest ->
            let rec take k acc = function
              | rest when k = 0 -> (List.rev acc, rest)
              | v :: rest -> take (k - 1) (Value.decode v :: acc) rest
              | [] -> db_err "load: truncated row"
            in
            let values, rest = take arity [] rest in
            Table.insert tbl values;
            parse_rows tbl arity rest
        | "END" :: rest -> parse_tables rest
        | line :: _ -> db_err "load: expected ROW or END, got %S" line
        | [] -> db_err "load: missing END"
      in
      parse_tables lines;
      t)

(* ------------------------------------------------------------------ *)
(* Crash recovery                                                      *)
(* ------------------------------------------------------------------ *)

type replay_report = {
  rp_applied : int;                     (* entries re-applied *)
  rp_discarded : Journal.entry list;    (* uncommitted-transaction tail *)
  rp_torn : bool;                       (* a torn/corrupt tail was cut *)
}

(* Split the valid entry list at the first transaction begin that never
   commits: everything from it on is an uncommitted tail and must be
   rolled back (App B §7 — instances generated in an unfinished
   transaction are not kept). *)
let split_uncommitted entries =
  let arr = Array.of_list entries in
  let open_txs = Hashtbl.create 4 in
  Array.iteri
    (fun i e ->
      match e with
      | Journal.Tx_begin tag -> Hashtbl.replace open_txs tag i
      | Journal.Tx_commit tag -> Hashtbl.remove open_txs tag
      | _ -> ())
    arr;
  match Hashtbl.fold (fun _ i acc -> min i acc) open_txs max_int with
  | cut when cut = max_int -> (entries, [])
  | cut ->
      ( Array.to_list (Array.sub arr 0 cut),
        Array.to_list (Array.sub arr cut (Array.length arr - cut)) )

let apply_entry t = function
  | Journal.Create (name, schema) ->
      if not (Hashtbl.mem t.tables name) then
        ignore (create_table t name schema)
  | Journal.Drop name -> if Hashtbl.mem t.tables name then drop_table t name
  | Journal.Insert (name, values) -> Table.insert (table t name) values
  | Journal.Delete (name, values) ->
      let want = Array.of_list values in
      let eq row =
        Array.length row = Array.length want
        && Array.for_all2 (fun a b -> Value.equal a b) row want
      in
      ignore (Table.delete_one (table t name) eq)
  | Journal.Tx_begin _ | Journal.Tx_commit _ -> ()

(* Replay the journal at [journal_path] over the (snapshot- or
   bootstrap-initialised) database [t]. Applies the longest valid,
   committed prefix; truncates the journal file to exactly that prefix
   so subsequent appends continue from a consistent point. The journal
   must not be attached to [t] while replaying. *)
let replay_journal t ~journal_path =
  if t.journal <> None then db_err "replay_journal: journal is attached";
  let entries, torn = Journal.replay journal_path in
  let applied, discarded = split_uncommitted entries in
  List.iter (apply_entry t) applied;
  if torn || discarded <> [] then Journal.rewrite journal_path applied;
  { rp_applied = List.length applied; rp_discarded = discarded; rp_torn = torn }

(* One-call recovery: load the last snapshot (or start empty), replay
   the journal over it. The returned database has no journal attached —
   callers re-attach with [attach_journal] once ready to accept writes. *)
let recover ?snapshot ~journal_path () =
  let t =
    match snapshot with
    | Some p when Sys.file_exists p -> load p
    | _ -> create ()
  in
  let report = replay_journal t ~journal_path in
  (t, report)

(* Checkpoint: absorb the journal into a snapshot, then truncate it.
   Crash order is safe at every point: the snapshot rename is atomic,
   and until the journal is reset a replay over the new snapshot merely
   re-applies operations the snapshot already contains (inserts would
   duplicate, hence reset immediately follows rename; a crash between
   the two is healed because recovery loads the snapshot and the journal
   still replays idempotent creates and re-inserts — callers that need
   exactness should recover then checkpoint again). *)
let checkpoint t ~snapshot =
  save t snapshot;
  match t.journal with Some j -> Journal.reset j | None -> ()
