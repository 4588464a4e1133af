(* What the experiments in main.ml share: the smoke switch, section
   headers, the bench_out trajectory writer, one monotonic timer, an
   in-process daemon, N clients over loopback, percentiles, and the
   paired-round A/B that gates every overhead claim. *)

(* ICDB_SMOKE=1 shrinks every sweep to its CI size *)
let smoke = Sys.getenv_opt "ICDB_SMOKE" <> None

let header title = Printf.printf "\n=== %s ===\n" title
let sub title = Printf.printf "-- %s --\n" title

let out_dir () =
  let dir = "bench_out" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  dir

(* bench_out/BENCH_<name>.json, led by the experiment name and the
   smoke flag so every trajectory says what produced it *)
let trajectory name fields =
  let path = Filename.concat (out_dir ()) ("BENCH_" ^ name ^ ".json") in
  Icdb_obs.Json.(
    write ~path (Obj (("experiment", Str name) :: ("smoke", Bool smoke) :: fields)));
  Printf.printf "trajectory -> %s\n" path

(* Seconds on Bechamel's monotonic clock: a wall-clock step during a
   run cannot stretch or shrink a measured interval. *)
let now () = Bechamel.Toolkit.Monotonic_clock.get () *. 1e-9

let time f =
  let t0 = now () in
  let x = f () in
  (x, now () -. t0)

(* Poll [cond] every 2 ms until it holds or the clock passes [deadline]
   (a {!now} reading); the result says which. *)
let wait_until ~deadline cond =
  let rec go () =
    if cond () then true
    else if now () >= deadline then false
    else begin
      Thread.yield ();
      Unix.sleepf 0.002;
      go ()
    end
  in
  go ()

(* A fresh server (or [server]) behind the lock, served on an ephemeral
   port; the service is shut down however [f] returns. *)
let with_daemon ?server ~config f =
  let s = match server with Some s -> s | None -> Icdb.Server.create () in
  let sync = Icdb_net.Sync.wrap s in
  let svc =
    Icdb_net.Service.start ~config:{ config with Icdb_net.Service.port = 0 } sync
  in
  Fun.protect
    ~finally:(fun () -> Icdb_net.Service.shutdown svc)
    (fun () -> f sync svc)

(* The daemon shape every client-load experiment uses: room for every
   client plus a few spare connections, four workers, and a queue deep
   enough that the load is never shed. *)
let load_config ~clients =
  { Icdb_net.Service.default_config with
    max_connections = clients + 4;
    workers = 4;
    max_queue = clients * 4 }

(* One thread per client, each on its own connection (the client
   library is call/response and not thread-safe). [finished] counts
   threads that are done, failed or not; [join] waits for all of them
   and re-raises the first client's failure, if any. *)
let spawn_clients ~port ~clients f =
  let finished = Atomic.make 0 in
  let slots = Array.make clients (Error Exit) in
  let client k =
    slots.(k) <-
      (try
         let c = Icdb_net.Client.connect ~port () in
         Fun.protect
           ~finally:(fun () -> Icdb_net.Client.close c)
           (fun () -> Ok (f k c))
       with e -> Error e);
    Atomic.incr finished
  in
  let threads = List.init clients (Thread.create client) in
  let join () =
    List.iter Thread.join threads;
    Array.map (function Ok x -> x | Error e -> raise e) slots
  in
  (finished, join)

let run_clients ~port ~clients f = snd (spawn_clients ~port ~clients f) ()

(* Client k's component: a distinct counter, so each client pays one
   cold generation and then hits the cache. *)
let gen_query k =
  Printf.sprintf
    "command:request_component; component_name:counter; \
     attribute:(size:%d); attribute:(type:2); instance:?s"
    (3 + k)

let function_query = "command:function_query; function:(INC); component:?s"

let exec c text =
  match Icdb_net.Client.exec c text with
  | Ok _ -> ()
  | Error (_, msg) -> failwith ("bench query failed: " ^ msg)

type load = {
  wall_s : float;       (* the timed window *)
  lats : float array;   (* per-request round trips, sorted ascending *)
}

(* [clients] threads each send [queries] requests: request i is the
   function query when i mod 3 = 1 and the client's own generation
   otherwise, so request 0 is the cold one. With [barrier] every client
   first sends its generation untimed and parks; the window opens once
   all are parked, which keeps cold generation out of the measurement. *)
let hot_clients ~port ~clients ~queries ~barrier =
  let ready = Atomic.make 0 and go = Atomic.make false in
  let client k c =
    let gen = gen_query k in
    if barrier then begin
      exec c gen;
      Atomic.incr ready;
      while not (Atomic.get go) do Thread.yield () done
    end;
    Array.init queries (fun i ->
        snd (time (fun () -> exec c (if i mod 3 = 1 then function_query else gen))))
  in
  let t0 = now () in
  let finished, join = spawn_clients ~port ~clients client in
  let t0 =
    if not barrier then t0
    else begin
      (* a client that failed before parking counts as finished *)
      while Atomic.get ready + Atomic.get finished < clients do
        Thread.yield ()
      done;
      let t = now () in
      Atomic.set go true;
      t
    end
  in
  let per_client = join () in
  let wall_s = now () -. t0 in
  let lats = Array.concat (Array.to_list per_client) in
  Array.sort compare lats;
  { wall_s; lats }

(* Nearest-rank percentile of an ascending array; 0 when empty. *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else
    let rank = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
    sorted.(max 0 (min (n - 1) (rank - 1)))

(* Run [f] every [period_s] on a background thread until the returned
   stop is called; stop joins the thread and re-raises what [f] raised. *)
let every ~period_s f =
  let stop = Atomic.make false and failure = ref None in
  let th =
    Thread.create
      (fun () ->
        try
          while not (Atomic.get stop) do
            f ();
            Thread.delay period_s
          done
        with e -> failure := Some e)
      ()
  in
  fun () ->
    Atomic.set stop true;
    Thread.join th;
    Option.iter raise !failure

type paired = {
  median_ratio : float;  (* median over rounds of b's cost / a's cost *)
  a_min : float;         (* each arm's cheapest run *)
  b_min : float;
}

(* Paired rounds, median ratio. [a] and [b] each run once and return a
   cost (lower is better). After one warm-up run of each, every round
   runs the two arms back-to-back, so machine-level drift (frequency
   scaling, contending load) hits both and cancels in the per-round
   ratio; the median of the ratios is then robust to the odd slow round,
   where per-arm minima taken independently are not. *)
let paired ~rounds a b =
  ignore (a ());
  ignore (b ());
  let a_min = ref infinity and b_min = ref infinity in
  let ratios =
    List.init rounds (fun _ ->
        let x = a () in
        let y = b () in
        a_min := Float.min !a_min x;
        b_min := Float.min !b_min y;
        y /. x)
  in
  let sorted = Array.of_list (List.sort compare ratios) in
  let median_ratio =
    (sorted.((rounds - 1) / 2) +. sorted.(rounds / 2)) /. 2.0
  in
  { median_ratio; a_min = !a_min; b_min = !b_min }
