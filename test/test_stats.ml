(* The live telemetry plane: the v4 stats exchange on the wire, scrapes
   in any session phase, shard federation with mergeable reservoirs, and
   the privacy lint that licenses exposing scrapes to an untrusted
   monitoring plane. *)

open Ppj_net
module Ch = Ppj_scpu.Channel
module W = Ppj_relation.Workload
module P = Ppj_relation.Predicate
module Rng = Ppj_crypto.Rng
module Service = Ppj_core.Service
module Privacy = Ppj_core.Privacy
module Instance = Ppj_core.Instance
module Report = Ppj_core.Report
module Core = Ppj_core
module Registry = Ppj_obs.Registry
module Snapshot = Ppj_obs.Snapshot
module Histogram = Ppj_obs.Histogram
module Shards = Ppj_shard.Shards
module Coordinator = Ppj_shard.Coordinator
module Partitioner = Ppj_shard.Partitioner

let mac_key = "test-stats-mac-key"
let schema = W.keyed_schema ()

let contract =
  { Ch.contract_id = "contract-stats-001";
    providers = [ "alice"; "bob" ];
    recipient = "carol";
    predicate = "eq(key,key)";
  }

let workload ?(seed = 11) () =
  let rng = Rng.create seed in
  W.equijoin_pair rng ~na:12 ~nb:18 ~matches:14 ~max_multiplicity:3

let no_sleep = { Client.default_config with recv_timeout = 0.05; sleep = ignore }
let client ?registry server = Client.create ~config:no_sleep ?registry (Transport.loopback server)

let ok = function Ok v -> v | Error e -> Alcotest.fail e

(* --- wire codec -------------------------------------------------------- *)

let roundtrip msg =
  match Wire.of_frame (Wire.to_frame ~seq:3 msg) with
  | Ok m -> m
  | Error e -> Alcotest.failf "round trip failed: %s" e

let test_wire_stats_round_trip () =
  Alcotest.(check bool) "request" true (roundtrip Wire.Stats_request = Wire.Stats_request);
  List.iter
    (fun store ->
      let info =
        { Wire.server_version = "0.3.0";
          wire_version = Wire.version;
          uptime_seconds = 12.5;
          sessions_active = 2;
          sessions_closed = 40;
          conns_live = 3;
          queue_bytes = 4096;
          store;
          ready = (store <> Wire.Store_open { epoch = 9; sealed = true });
        }
      in
      let msg = Wire.Stats_reply { info; snapshot = "{\"schema\":\"ppj.obs/1\"}" } in
      Alcotest.(check bool) "reply" true (roundtrip msg = msg))
    [ Wire.Store_none;
      Wire.Store_open { epoch = 0; sealed = false };
      Wire.Store_open { epoch = 9; sealed = true }
    ]

let test_wire_version_is_4 () =
  (* The stats exchange is a grammar extension: v3 peers must refuse us
     rather than mis-decode tag 16. *)
  Alcotest.(check bool) "v4 or later" true (Wire.version >= 4);
  Alcotest.(check string) "tag names" "stats-request"
    (Wire.tag_name (Wire.tag_of Wire.Stats_request))

(* --- scrape in any phase ----------------------------------------------- *)

let stats_reply_of_frames = function
  | [ f ] -> (
      match Wire.of_frame f with
      | Ok (Wire.Stats_reply { info; snapshot }) -> (f.Frame.seq, info, snapshot)
      | Ok m -> Alcotest.failf "unexpected reply %a" Wire.pp m
      | Error e -> Alcotest.fail e)
  | l -> Alcotest.failf "expected one reply, got %d" (List.length l)

let test_stats_before_attestation () =
  let server = Server.create ~mac_key ~seed:5 () in
  let session = Server.open_session server in
  let seq, info, snapshot =
    stats_reply_of_frames
      (Server.handle_frame server session (Wire.to_frame ~seq:41 Wire.Stats_request))
  in
  Alcotest.(check int) "seq echoed" 41 seq;
  Alcotest.(check bool) "ready without a store" true info.Wire.ready;
  Alcotest.(check int) "wire version" Wire.version info.Wire.wire_version;
  Alcotest.(check bool) "no store" true (info.Wire.store = Wire.Store_none);
  match Snapshot.of_json (ok (Ppj_obs.Json.of_string snapshot)) with
  | Error e -> Alcotest.failf "snapshot undecodable: %s" e
  | Ok snap -> (
      match Snapshot.find snap "net.server.stats.scrapes" with
      | Some { Snapshot.value = Snapshot.Counter 1; _ } -> ()
      | _ -> Alcotest.fail "scrape counter missing from the scrape itself")

let test_client_stats_does_not_disturb_session () =
  (* Scrape, attest, scrape, handshake: the admin exchange must leave
     the session lifecycle where it found it. *)
  let server = Reactor.create (Server.create ~mac_key ~seed:5 ()) in
  let c = client server in
  let info0, _ = ok (Client.stats c) in
  Alcotest.(check bool) "pre-attest scrape ready" true info0.Wire.ready;
  ok (Client.attest c);
  let info1, snap1 = ok (Client.stats c) in
  Alcotest.(check bool) "post-attest scrape ready" true info1.Wire.ready;
  (match Snapshot.find snap1 "net.server.stats.scrapes" with
  | Some { Snapshot.value = Snapshot.Counter n; _ } when n >= 2 -> ()
  | _ -> Alcotest.fail "scrapes not counted");
  ok (Client.handshake c ~rng:(Rng.create 7) ~id:"carol" ~mac_key);
  Client.close c

let test_scrape_reports_health_gauges () =
  let server = Reactor.create (Server.create ~mac_key ~seed:5 ()) in
  let a, b = workload () in
  List.iter
    (fun (id, rel) ->
      let c = client server in
      ok (Client.submit_relation c ~rng:(Rng.create (Hashtbl.hash id)) ~id ~mac_key ~contract ~schema rel);
      Client.close c)
    [ ("alice", a); ("bob", b) ];
  let c = client server in
  ignore
    (ok
       (Client.fetch_result c ~rng:(Rng.create 99) ~id:"carol" ~mac_key ~contract
          { Service.m = 4; seed = 9; algorithm = Service.Alg5 }));
  let info, snap = ok (Client.stats c) in
  Client.close c;
  Alcotest.(check int) "one session still open" 1 info.Wire.sessions_active;
  Alcotest.(check int) "two sessions closed" 2 info.Wire.sessions_closed;
  (* every in-process session crossed the one reactor, which counts it *)
  Alcotest.(check int) "one connection live" 1 info.Wire.conns_live;
  (match Snapshot.find snap "net.server.joins.executed" with
  | Some { Snapshot.value = Snapshot.Counter 1; _ } -> ()
  | _ -> Alcotest.fail "join counter missing");
  (match Snapshot.find snap "net.server.join.seconds" with
  | Some { Snapshot.value = Snapshot.Summary s; _ } ->
      Alcotest.(check int) "one join observed" 1 s.Histogram.count;
      Alcotest.(check bool) "samples exported for merging" true
        (Array.length s.Histogram.samples = 1)
  | _ -> Alcotest.fail "join latency summary missing");
  (match Snapshot.find snap "server.uptime_seconds" with
  | Some { Snapshot.value = Snapshot.Gauge u; _ } -> Alcotest.(check bool) "uptime" true (u >= 0.)
  | _ -> Alcotest.fail "uptime gauge missing");
  match
    Snapshot.find snap "build.info"
      ~labels:[ ("ocaml", Sys.ocaml_version); ("version", Ppj_obs.Buildinfo.semver) ]
  with
  | Some { Snapshot.value = Snapshot.Gauge 1.; _ } -> ()
  | _ -> Alcotest.fail "build.info gauge missing"

(* --- federation -------------------------------------------------------- *)

let p = 4

let fleet () =
  let servers = Array.init p (fun k -> Reactor.create (Server.create ~mac_key ~seed:(5 + k) ())) in
  let shards = Shards.create ~p ~connect:(fun k -> Ok (Transport.loopback servers.(k))) in
  (servers, shards)

let sharded_config inner = { Coordinator.p; m = 4; seed = 7; inner; strategy = Partitioner.Replicate }

let run_fleet_join shards inner =
  let a, b = workload () in
  ok
    (Coordinator.run_wire ~client_config:no_sleep ~shards ~seed:23 ~mac_key ~contract
       ~providers:[ ("alice", schema, a); ("bob", schema, b) ]
       (sharded_config inner))

let test_federated_scrape () =
  let _servers, shards = fleet () in
  ignore (run_fleet_join shards (Service.Alg8 { attr_a = "key"; attr_b = "key" }));
  let f = ok (Coordinator.stats ~client_config:no_sleep ~shards ()) in
  Alcotest.(check int) "one info per shard" p (List.length f.Coordinator.shard_infos);
  List.iteri
    (fun k (k', info) ->
      Alcotest.(check int) "shard order" k k';
      Alcotest.(check bool) "shard ready" true info.Wire.ready)
    f.Coordinator.shard_infos;
  let snap = f.Coordinator.fleet_snapshot in
  (* per-shard series carry the shard label *)
  for k = 0 to p - 1 do
    match Snapshot.find snap ~labels:[ ("shard", string_of_int k) ] "net.server.joins.executed" with
    | Some { Snapshot.value = Snapshot.Counter 1; _ } -> ()
    | _ -> Alcotest.failf "shard %d join counter missing" k
  done;
  (* the unlabelled rollup sums counters and merges reservoirs: the
     fleet-wide p99 is computable from this one scrape *)
  (match Snapshot.find snap "net.server.joins.executed" with
  | Some { Snapshot.value = Snapshot.Counter n; _ } -> Alcotest.(check int) "fleet joins" p n
  | _ -> Alcotest.fail "fleet join counter missing");
  match Snapshot.find snap "net.server.join.seconds" with
  | Some { Snapshot.value = Snapshot.Summary s; _ } ->
      Alcotest.(check int) "fleet latency count" p s.Histogram.count;
      Alcotest.(check bool) "fleet p99 is the slowest shard" true
        (s.Histogram.p99 >= s.Histogram.p50);
      Alcotest.(check bool) "fleet p99 within range" true
        (s.Histogram.p99 >= s.Histogram.min && s.Histogram.p99 <= s.Histogram.max)
  | _ -> Alcotest.fail "fleet latency summary missing"

let test_federated_pad_slots_per_shard () =
  (* The satellite this PR exists for: the oblivious sort's pad gauge
     must surface one series per shard, not a last-writer-wins global.
     Algorithm 8 sorts on every shard, so every shard writes its own
     [oblivious.sort.pad_slots{...,shard=k}]. *)
  let _servers, shards = fleet () in
  ignore (run_fleet_join shards (Service.Alg8 { attr_a = "key"; attr_b = "key" }));
  let f = ok (Coordinator.stats ~client_config:no_sleep ~shards ()) in
  let pads_of k =
    List.filter
      (fun m ->
        m.Snapshot.name = "oblivious.sort.pad_slots"
        && List.mem ("shard", string_of_int k) m.Snapshot.labels)
      f.Coordinator.fleet_snapshot
  in
  for k = 0 to p - 1 do
    Alcotest.(check bool)
      (Printf.sprintf "shard %d pad series present" k)
      true
      (pads_of k <> [])
  done

(* Padding is published by the server that computed the join, into its
   own registry: a bystander in the same process, which ran no session,
   scrapes none, and each shard server only its own slice's. *)
let test_bystander_scrapes_no_padding () =
  let bystander = Server.create ~mac_key ~seed:4 () in
  let servers = Array.init p (fun k -> Server.create ~mac_key ~seed:(5 + k) ()) in
  let reactors = Array.map Reactor.create servers in
  let shards = Shards.create ~p ~connect:(fun k -> Ok (Transport.loopback reactors.(k))) in
  ignore (run_fleet_join shards (Service.Alg8 { attr_a = "key"; attr_b = "key" }));
  let pads server =
    List.filter
      (fun m -> m.Snapshot.name = "oblivious.sort.pad_slots")
      (snd (Server.scrape server))
  in
  Alcotest.(check int) "bystander pad series" 0 (List.length (pads bystander));
  Array.iteri
    (fun k server ->
      Alcotest.(check (list (option string)))
        (Printf.sprintf "shard %d's own series only" k)
        [ Some (string_of_int k) ]
        (List.sort_uniq compare
           (List.map (fun m -> List.assoc_opt "shard" m.Snapshot.labels) (pads server))))
    servers

(* The scrape holds the latest computed join's padding: a region an
   earlier join padded and the latest did not reads 0. *)
let test_pad_series_follow_latest_join () =
  let server = Reactor.create (Server.create ~mac_key ~seed:5 ()) in
  let a, b = workload () in
  List.iter
    (fun (id, rel) ->
      let c = client server in
      ok (Client.submit_relation c ~rng:(Rng.create (Hashtbl.hash id)) ~id ~mac_key ~contract ~schema rel);
      Client.close c)
    [ ("alice", a); ("bob", b) ];
  let config algorithm = { Service.m = 4; seed = 9; algorithm } in
  let fetch ~rng algorithm =
    let c = client server in
    ignore
      (ok
         (Client.fetch_result c ~rng:(Rng.create rng) ~id:"carol" ~mac_key ~contract
            (config algorithm)));
    let _, snap = ok (Client.stats c) in
    Client.close c;
    List.sort compare
      (List.filter_map
         (fun m ->
           match (m.Snapshot.name, m.Snapshot.value) with
           | "oblivious.sort.pad_slots", Snapshot.Gauge v ->
               Some (List.assoc "region" m.Snapshot.labels, v)
           | _ -> None)
         snap)
  in
  let padding algorithm =
    let inst, _ =
      Service.execute_join (config algorithm) ~predicate:(P.equijoin2 "key" "key") [ a; b ]
    in
    List.map
      (fun (region, n) -> (Ppj_scpu.Trace.region_name region, float_of_int n))
      (Ppj_scpu.Coprocessor.pad_slots (Instance.co inst))
  in
  let alg8 = padding (Service.Alg8 { attr_a = "key"; attr_b = "key" }) in
  let alg4 = padding Service.Alg4 in
  Alcotest.(check (list (pair string (float 0.)))) "after alg8" (List.sort compare alg8)
    (fetch ~rng:98 (Service.Alg8 { attr_a = "key"; attr_b = "key" }));
  Alcotest.(check (list (pair string (float 0.)))) "after alg4: its padding, 0 elsewhere"
    (List.sort compare
       (alg4
       @ List.filter_map
           (fun (r, _) -> if List.mem_assoc r alg4 then None else Some (r, 0.))
           alg8))
    (fetch ~rng:99 Service.Alg4)

let test_federation_fails_closed () =
  (* A shard that cannot be scraped fails the whole federated call with
     the typed shard-unavailable prefix, like any other fan-out. *)
  let servers, _ = fleet () in
  let shards =
    Shards.create ~p ~connect:(fun k ->
        if k = 2 then Error "connect refused" else Ok (Transport.loopback servers.(k)))
  in
  match Coordinator.stats ~client_config:no_sleep ~shards () with
  | Ok _ -> Alcotest.fail "scrape of a dead shard must fail"
  | Error e ->
      Alcotest.(check bool) "typed prefix" true
        (String.length e >= 17 && String.sub e 0 17 = "shard-unavailable")

(* --- the privacy lint on exports --------------------------------------- *)

(* Two data variants of identical shape (|A|, |B|, S, multiplicity), the
   coprocessor seed held fixed — the same quantification as Definition 1,
   applied to the metric export instead of the access trace. *)
let export_of ~data_seed run =
  let rng = Rng.create data_seed in
  let a, b = W.equijoin_pair rng ~na:8 ~nb:12 ~matches:9 ~max_multiplicity:3 in
  let inst = Instance.create ~m:4 ~seed:1234 ~predicate:(P.equijoin2 "key" "key") [ a; b ] in
  (run inst : Report.t).Report.metrics

let check_exports_safe name run () =
  let exports = List.map (fun s -> export_of ~data_seed:s run) [ 1; 2; 3; 4 ] in
  match Privacy.compare_exports exports with
  | Privacy.Indistinguishable -> ()
  | v -> Alcotest.failf "%s export leaks: %a" name Privacy.pp_verdict v

let test_alg1_export = check_exports_safe "alg1" (fun i -> Core.Algorithm1.run i ~n:3)
let test_alg2_export = check_exports_safe "alg2" (fun i -> Core.Algorithm2.run i ~n:3 ())
let test_alg4_export = check_exports_safe "alg4" (fun i -> Core.Algorithm4.run i ())
let test_alg5_export = check_exports_safe "alg5" Core.Algorithm5.run

let test_alg6_export =
  check_exports_safe "alg6" (fun i -> fst (Core.Algorithm6.run i ~eps:1e-12 ()))

let test_alg8_export =
  check_exports_safe "alg8" (fun i -> fst (Core.Algorithm8.run i ~attr_a:"key" ~attr_b:"key"))

let test_leaky_export_is_caught () =
  (* Negative control: an exporter that lets a data-dependent figure
     into the scrape — here a gauge counting the real (pre-pad) matches
     of each run — must be flagged.  If this test ever passes with
     Indistinguishable, the lint has gone blind. *)
  let leaky data_seed =
    let rng = Rng.create data_seed in
    (* different multiplicity distributions, same cardinalities *)
    let a = W.uniform rng ~name:"A" ~n:8 ~key_domain:(2 + data_seed) in
    let b = W.uniform rng ~name:"B" ~n:12 ~key_domain:(2 + data_seed) in
    let inst = Instance.create ~m:4 ~seed:1234 ~predicate:(P.equijoin2 "key" "key") [ a; b ] in
    let report = Core.Algorithm5.run inst in
    let reg = Registry.create () in
    Registry.set_gauge reg "leaky.matches" (float_of_int (List.length report.Report.results));
    Snapshot.union report.Report.metrics (Registry.snapshot reg)
  in
  match Privacy.compare_exports [ leaky 1; leaky 2; leaky 3 ] with
  | Privacy.Indistinguishable -> Alcotest.fail "leaky export not flagged"
  | Privacy.Distinguishable _ -> ()

let test_shape_mismatch_is_structural () =
  (* A metric present in one export and missing from another is itself a
     signal — the lint reports it even when every shared value agrees. *)
  let base =
    let reg = Registry.create () in
    Ppj_obs.Counter.incr (Registry.counter reg "joins");
    Registry.snapshot reg
  in
  let extra =
    let reg = Registry.create () in
    Ppj_obs.Counter.incr (Registry.counter reg "joins");
    Registry.set_gauge reg "surprise" 1.;
    Registry.snapshot reg
  in
  match Privacy.compare_exports [ base; extra ] with
  | Privacy.Distinguishable { detail; _ } ->
      Alcotest.(check bool) "names the metric" true
        (String.length detail > 0)
  | Privacy.Indistinguishable -> Alcotest.fail "structural difference not flagged"

let test_timing_values_are_exempt () =
  (* Same shape, different wall-clock: the default predicate must not
     flag metrics whose name marks them as timing. *)
  let mk secs =
    let reg = Registry.create () in
    Histogram.observe (Registry.histogram reg "join.seconds") secs;
    Registry.set_gauge reg "server.uptime_seconds" (10. *. secs);
    Ppj_obs.Counter.incr (Registry.counter reg "joins");
    Registry.snapshot reg
  in
  (match Privacy.compare_exports [ mk 0.5; mk 0.9 ] with
  | Privacy.Indistinguishable -> ()
  | v -> Alcotest.failf "timing flagged: %a" Privacy.pp_verdict v);
  (* ... but their observation counts are still shape-derived *)
  let two =
    let reg = Registry.create () in
    Histogram.observe (Registry.histogram reg "join.seconds") 0.5;
    Histogram.observe (Registry.histogram reg "join.seconds") 0.6;
    Ppj_obs.Counter.incr (Registry.counter reg "joins");
    Registry.snapshot reg
  in
  match Privacy.compare_exports [ mk 0.5; two ] with
  | Privacy.Distinguishable _ -> ()
  | Privacy.Indistinguishable -> Alcotest.fail "count divergence not flagged"

let test_server_scrapes_pass_the_lint () =
  (* The deployment-shaped check: two servers fed same-shape different
     data must export scrapes the lint accepts.  Server registries only
     — the process-global default registry accumulates across the two
     runs sharing this test binary. *)
  let scrape_of data_seed =
    let server = Reactor.create (Server.create ~mac_key ~seed:5 ()) in
    let a, b = workload ~seed:data_seed () in
    List.iter
      (fun (id, rel) ->
        let c = client server in
        ok
          (Client.submit_relation c
             ~rng:(Rng.create (Hashtbl.hash id))
             ~id ~mac_key ~contract ~schema rel);
        Client.close c)
      [ ("alice", a); ("bob", b) ];
    let c = client server in
    ignore
      (ok
         (Client.fetch_result c ~rng:(Rng.create 99) ~id:"carol" ~mac_key ~contract
            { Service.m = 4; seed = 9; algorithm = Service.Alg5 }));
    Client.close c;
    Registry.snapshot (Server.registry (Reactor.server server))
  in
  match Privacy.compare_exports [ scrape_of 11; scrape_of 12; scrape_of 13 ] with
  | Privacy.Indistinguishable -> ()
  | v -> Alcotest.failf "server scrape leaks: %a" Privacy.pp_verdict v

let () =
  Alcotest.run "stats"
    [ ( "wire",
        [ Alcotest.test_case "stats round trip" `Quick test_wire_stats_round_trip;
          Alcotest.test_case "version bumped" `Quick test_wire_version_is_4
        ] );
      ( "scrape",
        [ Alcotest.test_case "before attestation" `Quick test_stats_before_attestation;
          Alcotest.test_case "any phase" `Quick test_client_stats_does_not_disturb_session;
          Alcotest.test_case "health gauges" `Quick test_scrape_reports_health_gauges
        ] );
      ( "federation",
        [ Alcotest.test_case "merged fleet scrape" `Quick test_federated_scrape;
          Alcotest.test_case "pad slots per shard" `Quick test_federated_pad_slots_per_shard;
          Alcotest.test_case "bystander scrapes no padding" `Quick
            test_bystander_scrapes_no_padding;
          Alcotest.test_case "pad series follow the latest join" `Quick
            test_pad_series_follow_latest_join;
          Alcotest.test_case "fails closed" `Quick test_federation_fails_closed
        ] );
      ( "export-privacy",
        [ Alcotest.test_case "alg1" `Quick test_alg1_export;
          Alcotest.test_case "alg2" `Quick test_alg2_export;
          Alcotest.test_case "alg4" `Quick test_alg4_export;
          Alcotest.test_case "alg5" `Quick test_alg5_export;
          Alcotest.test_case "alg6" `Quick test_alg6_export;
          Alcotest.test_case "alg8" `Quick test_alg8_export;
          Alcotest.test_case "leaky negative control" `Quick test_leaky_export_is_caught;
          Alcotest.test_case "structural mismatch" `Quick test_shape_mismatch_is_structural;
          Alcotest.test_case "timing exempt, counts not" `Quick test_timing_values_are_exempt;
          Alcotest.test_case "server scrapes" `Quick test_server_scrapes_pass_the_lint
        ] )
    ]
