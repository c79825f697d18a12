(* serve-mix: durable serving traffic over a real Unix socket.

   A server process (this executable's [serve] command: Reactor.serve_unix
   on a fresh Store state directory, production defaults) is driven by 2
   closed-loop workers, so 2 sessions are in flight.  Each worker walks
   contract cycles: alice's upload (which registers the contract), bob's
   upload, one recipient join (Algorithm 5 on the 8 x 12 fixture, m = 4,
   journalled), then four recipient fetches answered from the durable
   result cache.  Every contract uploads once: re-uploads are not
   covered.

   A server serves one epoch of [contracts_per_epoch] cycles, so its
   memory and journal reach the same size on any host; a run starts
   fresh epochs until --seconds have passed, and at least three. *)

module Server = Ppj_net.Server
module Reactor = Ppj_net.Reactor
module Transport = Ppj_net.Transport
module Client = Ppj_net.Client
module Store = Ppj_store.Store
module Service = Ppj_core.Service
module Schema = Ppj_relation.Schema
module Relation = Ppj_relation.Relation
module Registry = Ppj_obs.Registry
module Recorder = Ppj_obs.Recorder
module Snapshot = Ppj_obs.Snapshot

let config = { Service.m = 4; seed = 7; algorithm = Service.Alg5 }

let workers = 2

let cycles_per_worker = 200

let contracts_per_epoch = workers * cycles_per_worker

let sessions_per_cycle = 7

(* --- the server process ------------------------------------------------ *)

let serve ~socket ~dir ~trace_out =
  let stopped = ref false in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> stopped := true));
  let registry = Registry.create () in
  match Store.open_dir ~registry ~mac_key:Inputs.mac_key dir with
  | Error e ->
      prerr_endline ("serve: " ^ Store.error_message e);
      exit 2
  | Ok (store, _) ->
      let recorder = Option.map (fun _ -> Recorder.create ~name:"server" ()) trace_out in
      let server = Server.create ~registry ?recorder ~store ~mac_key:Inputs.mac_key ~seed:5 () in
      Reactor.serve_unix (Reactor.create server) ~path:socket ~stop:(fun () -> !stopped) ();
      Store.close store;
      Option.iter
        (fun file ->
          Out_channel.with_open_text file (fun oc ->
              Out_channel.output_string oc
                (Ppj_obs.Json.to_string (Recorder.to_perfetto (Option.get recorder)))))
        trace_out

(* --- client sessions ------------------------------------------------------
   One public Client call per step, each under a span named after the
   layer it enters when traced. *)

let ( let* ) = Result.bind

let with_client ?registry ?recorder transport f =
  let c = Client.create ?registry ?recorder transport in
  Fun.protect ~finally:(fun () -> Client.close c) (fun () -> f c)

let establish ?recorder c ~rng ~id contract =
  let* () = Util.span recorder "net.attest" (fun () -> Client.attest c) in
  let* () =
    Util.span recorder "net.handshake" (fun () ->
        Client.handshake c ~rng ~id ~mac_key:Inputs.mac_key)
  in
  Util.span recorder "net.contract" (fun () -> Client.bind_contract c contract)

(* A provider session: attest, handshake, bind (which registers the
   contract on first use) and upload. *)
let provider ?recorder c ~rng ~id ~contract rel =
  let* () = establish ?recorder c ~rng ~id contract in
  Util.span recorder "net.upload" (fun () -> Client.upload c ~schema:Inputs.schema rel)

(* A recipient session: execute (computed, or answered from the result
   cache) and fetch; returns the transfer count and the decoded tuples. *)
let recipient ?recorder c ~rng ~contract =
  let* () = establish ?recorder c ~rng ~id:contract.Ppj_scpu.Channel.recipient contract in
  let* transfers = Util.span recorder "net.execute" (fun () -> Client.execute c config) in
  let* _schema, tuples = Util.span recorder "net.fetch" (fun () -> Client.fetch c) in
  Ok (transfers, tuples)

(* --- the load generator --------------------------------------------------- *)

type kind = Upload | Join | Fetch

type worker_result = {
  tally : Oracle.tally;
  transfers : Oracle.transfers;
  samples : (kind * float) list;
  registry : Registry.t option;
  recorder : Recorder.t option;
}

let worker ~path ~seed ~epoch ~w ~traced () =
  let registry = if traced then Some (Registry.create ()) else None in
  let recorder =
    if traced then Some (Recorder.create ~name:(Printf.sprintf "client-w%d" w) ()) else None
  in
  let tally = Oracle.tally () and transfers = Oracle.transfers () in
  let samples = ref [] in
  for c = 0 to cycles_per_worker - 1 do
    let idx = (epoch * contracts_per_epoch) + (w * cycles_per_worker) + c in
    let a, b = Inputs.fixture ~seed idx in
    let expected = Oracle.expected a b in
    let contract = Inputs.contract (Printf.sprintf "%06d" idx) in
    (* only sessions delivered correctly are timed *)
    let session kind k f =
      let rng = Inputs.rng ~seed "hs-mix" ((sessions_per_cycle * idx) + k) in
      match
        Util.timed (fun () ->
            Oracle.run tally (fun () ->
                match Transport.connect_unix ~path () with
                | Error e -> Oracle.Refused e
                | Ok tr -> with_client ?registry ?recorder tr (f rng)))
      with
      | Oracle.Correct, s -> samples := (kind, s) :: !samples
      | (Oracle.Wrong | Oracle.Refused _ | Oracle.Hung _ | Oracle.Raised _), _ -> ()
    in
    List.iteri
      (fun k (id, rel) ->
        session Upload k (fun rng c ->
            match provider ?recorder c ~rng ~id ~contract rel with
            | Ok () -> Oracle.Correct
            | Error e -> Oracle.of_error e))
      (List.combine contract.Ppj_scpu.Channel.providers [ a; b ]);
    for k = 2 to sessions_per_cycle - 1 do
      session (if k = 2 then Join else Fetch) k (fun rng c ->
          match recipient ?recorder c ~rng ~contract with
          | Ok (n, tuples) ->
              Oracle.note_transfers transfers n;
              if Oracle.matches ~expected tuples then Oracle.Correct else Oracle.Wrong
          | Error e -> Oracle.of_error e)
    done
  done;
  { tally; transfers; samples = !samples; registry; recorder }

type epoch = {
  setup_s : float;  (** server spawn to first accepted connection *)
  wall_s : float;
  results : worker_result list;
  rss_mb : float;
  scrape : Snapshot.t option;
  server_trace : Ppj_obs.Json.t option;
  state_dir : string;
}

let rec wait_ready path tries =
  match Transport.connect_unix ~path () with
  | Ok tr -> tr.Transport.close ()
  | Error e ->
      if tries = 0 then failwith ("server never came up: " ^ e);
      Unix.sleepf 0.002;
      wait_ready path (tries - 1)

let scrape path =
  match Transport.connect_unix ~path () with
  | Error e -> failwith e
  | Ok tr ->
      with_client tr (fun c ->
          match Client.stats c with Ok (_, snap) -> snap | Error e -> failwith e)

let epoch ~dir ~seed ~e ~traced =
  let state_dir = Filename.concat dir (Printf.sprintf "state-%d" e) in
  let path = Filename.concat dir (Printf.sprintf "s%d.sock" e) in
  let trace_file = Filename.concat dir (Printf.sprintf "server-%d.json" e) in
  let exe = Sys.executable_name in
  let t0 = Util.now () in
  let pid =
    Unix.create_process exe
      (Array.of_list
         ([ exe; "serve"; "--socket"; path; "--dir"; state_dir ]
         @ if traced then [ "--trace-out"; trace_file ] else []))
      Unix.stdin Unix.stderr Unix.stderr
  in
  let stopped = ref false in
  let stop () =
    if not !stopped then begin
      stopped := true;
      (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] pid)
    end
  in
  Fun.protect ~finally:stop (fun () ->
      wait_ready path 5000;
      let setup_s = Util.now () -. t0 in
      let results, wall_s =
        Util.timed (fun () ->
            let slots = Array.make workers None in
            let threads =
              List.init workers (fun w ->
                  Thread.create
                    (fun () ->
                      slots.(w) <-
                        Some
                          (try Ok (worker ~path ~seed ~epoch:e ~w ~traced ())
                           with ex -> Error (Printexc.to_string ex)))
                    ())
            in
            List.iter Thread.join threads;
            Array.to_list slots
            |> List.map (function
                 | Some (Ok r) -> r
                 | Some (Error m) -> failwith ("worker died: " ^ m)
                 | None -> failwith "worker vanished"))
      in
      let scrape = if traced then Some (scrape path) else None in
      let rss_mb = Util.peak_rss_mb pid in
      stop ();
      let server_trace =
        if traced then
          Result.to_option
            (Ppj_obs.Json.of_string (In_channel.with_open_text trace_file In_channel.input_all))
        else None
      in
      { setup_s; wall_s; results; rss_mb; scrape; server_trace; state_dir })

let run ~dir ~seed ~seconds ~trace =
  let t0 = Util.now () in
  let rec go e acc =
    if e >= 3 && Util.now () -. t0 >= seconds then List.rev acc
    else go (e + 1) (epoch ~dir ~seed ~e ~traced:(trace && e mod 2 = 1) :: acc)
  in
  let epochs = go 0 [] in
  let is_traced ep = ep.scrape <> None in
  let plain = List.filter (fun ep -> not (is_traced ep)) epochs in
  let traced = List.filter is_traced epochs in
  let tally = Oracle.tally () and transfers = Oracle.transfers () in
  List.iter
    (fun ep ->
      List.iter
        (fun r ->
          Oracle.add tally r.tally;
          Option.iter (Oracle.note_transfers transfers) r.transfers.Oracle.value;
          if r.transfers.Oracle.varied then transfers.Oracle.varied <- true)
        ep.results)
    epochs;
  let samples eps =
    List.concat_map (fun ep -> List.concat_map (fun r -> r.samples) ep.results) eps
  in
  let all = samples plain in
  let ms_of ?kind l =
    List.filter_map
      (fun (k, s) -> if kind = None || kind = Some k then Some (Util.ms s) else None)
      l
  in
  let lat = ms_of all in
  let wall = List.fold_left (fun a ep -> a +. ep.wall_s) 0. plain in
  let p50_of kind = Util.median (ms_of ~kind all) in
  let n_of kind = List.length (ms_of ~kind all) in
  let ops_per_s = float_of_int (List.length lat) /. wall in
  let lines =
    [ Printf.sprintf "epochs %d (%d untraced), %d contracts and %d sessions each"
        (List.length epochs) (List.length plain) contracts_per_epoch
        (contracts_per_epoch * sessions_per_cycle);
      Printf.sprintf "ops_per_s %.1f (sessions/s, 2 in flight, n=%d over %.2f s)" ops_per_s
        (List.length lat) wall;
      Printf.sprintf "op_p50_ms %.3f op_p99_ms %.3f (n=%d, %d beyond p99)" (Util.median lat)
        (Util.percentile lat 99.) (List.length lat) (Util.beyond lat 99.);
      Printf.sprintf "upload_p50_ms %.3f (n=%d) join_p50_ms %.3f (n=%d) fetch_p50_ms %.3f (n=%d)"
        (p50_of Upload) (n_of Upload) (p50_of Join) (n_of Join) (p50_of Fetch) (n_of Fetch);
      Printf.sprintf "server peak_rss_mb per epoch: %s"
        (String.concat " " (List.map (fun ep -> Printf.sprintf "%.1f" ep.rss_mb) plain)) ]
  in
  let e2e =
    [ Util.metric "setup_s" "s" (Util.median (List.map (fun ep -> ep.setup_s) plain));
      Util.metric "peak_rss_mb" "MB" (Util.median (List.map (fun ep -> ep.rss_mb) plain));
      Util.metric "ops_per_s" "1/s" ops_per_s;
      Util.metric "op_p50_ms" "ms" (Util.median lat);
      Util.metric "join_p50_ms" "ms" (p50_of Join);
      Util.metric "transfers_per_op" "count"
        (Option.fold ~none:nan ~some:float_of_int transfers.Oracle.value) ]
  in
  let layers =
    if not trace then None
    else
      let t = Layers.create () in
      Probes.set_fixed_shape t ~dir:(Filename.concat dir "append-probe");
      let results = List.concat_map (fun ep -> ep.results) traced in
      let merge snaps = List.fold_left Snapshot.merge Snapshot.empty snaps in
      let client =
        merge (List.filter_map (fun r -> Option.map Registry.snapshot r.registry) results)
      in
      let server = merge (List.filter_map (fun ep -> ep.scrape) traced) in
      let traced_lat = ms_of (samples traced) in
      let n = List.length traced_lat in
      let joins = List.length (ms_of ~kind:Join (samples traced)) in
      let joins_per_op = float_of_int joins /. float_of_int n in
      let recipients = joins + List.length (ms_of ~kind:Fetch (samples traced)) in
      let recipients_per_op = float_of_int recipients /. float_of_int n in
      let rpc_s, busy_s = Layers.set_net t ~client ~server ~ops:n in
      let a, b = Inputs.fixture ~seed 0 in
      let r =
        Probes.median_replica 21 (fun () ->
            Probes.replica ~m:config.m ~seed:config.seed
              ~run:(fun inst -> ignore (Ppj_core.Algorithm5.run inst))
              [ a; b ])
      in
      Probes.set_replica t r ~joins_per_op;
      Probes.set_common t r;
      let appends = Layers.counter server "store.appends" in
      let bytes rel = Relation.cardinality rel * Schema.width rel.Relation.schema in
      let user_bytes = joins * (bytes a + bytes b) in
      Layers.set t "store.appends_per_op" (float_of_int appends /. float_of_int n);
      Layers.set t "store.bytes_per_user_byte"
        (float_of_int (Layers.counter server "store.append.bytes") /. float_of_int user_bytes);
      Layers.set t "store.compactions" (float_of_int (Layers.counter server "store.compactions"));
      let last = List.nth epochs (List.length epochs - 1) in
      Layers.set t "store.replay_ms" (Probes.replay_ms last.state_dir);
      (* attributed per session: the wire, journal appends, the replayed
         join's instance, algorithm and result steps for the sessions that
         compute one, its seal and open for every recipient session (a
         cached fetch re-seals the journalled result to its session keys
         and the client opens it), and each session's attestation and
         handshake *)
      let attributed =
        Util.ms (rpc_s -. busy_s)
        +. (float_of_int appends /. float_of_int n *. Layers.get t "store.append_ms")
        +. (joins_per_op *. (r.Probes.instance_ms +. r.Probes.join_ms +. r.Probes.result_ms))
        +. (recipients_per_op *. (r.Probes.seal_ms +. r.Probes.open_ms))
        +. Layers.get t "scpu.handshake_ms" +. Layers.get t "scpu.attest_ms"
      in
      Layers.set t "residual_ms" (Util.mean traced_lat -. attributed);
      Layers.set t "trace.overhead_pct"
        (100. *. (Util.median traced_lat -. Util.median lat) /. Util.median lat);
      Some
        ( t,
          List.filter_map (fun r -> r.recorder) results,
          List.filter_map (fun ep -> ep.server_trace) traced )
  in
  (tally, transfers, e2e, lines, layers)
