(* The wire protocol end to end: framing, codecs, loopback sessions that
   must deliver byte-identical tuples to the in-process service, the
   adversary's view of the wire, client retry/timeout behaviour under
   injected faults, protocol error paths, and a real two-process join
   over a Unix-domain socket. *)

open Ppj_net
module Ch = Ppj_scpu.Channel
module W = Ppj_relation.Workload
module P = Ppj_relation.Predicate
module T = Ppj_relation.Tuple
module Schema = Ppj_relation.Schema
module Relation = Ppj_relation.Relation
module Value = Ppj_relation.Value
module Rng = Ppj_crypto.Rng
module Service = Ppj_core.Service
module Registry = Ppj_obs.Registry
module Counter = Ppj_obs.Counter

let mac_key = "test-net-mac-key"
let schema = W.keyed_schema ()

let contract =
  { Ch.contract_id = "contract-net-001";
    providers = [ "alice"; "bob" ];
    recipient = "carol";
    predicate = "eq(key,key)";
  }

let workload () =
  let rng = Rng.create 11 in
  W.equijoin_pair rng ~na:12 ~nb:18 ~matches:14 ~max_multiplicity:3

let service_config algorithm = { Service.m = 4; seed = 9; algorithm }

(* What the recipient decodes when the same join runs entirely in
   process — the network path must deliver these exact bytes. *)
let in_process_delivery algorithm =
  let pa = Ch.party ~id:"alice" ~secret:(String.make 16 'a') in
  let pb = Ch.party ~id:"bob" ~secret:(String.make 16 'b') in
  let pc = Ch.party ~id:"carol" ~secret:(String.make 16 'c') in
  let a, b = workload () in
  match
    Service.run (service_config algorithm) ~contract
      ~submissions:
        [ (pa, schema, Ch.submit pa contract a); (pb, schema, Ch.submit pb contract b) ]
      ~recipient:pc ~predicate:(P.equijoin2 "key" "key")
  with
  | Ok o -> List.map T.encode o.Service.delivered
  | Error e -> Alcotest.fail e

let no_sleep = { Client.default_config with recv_timeout = 0.05; sleep = ignore }

(* One reactor per server, as [ppj serve] runs it: every in-process
   session crosses it. *)
let serve ?faults ?max_contracts ?(seed = 7) () =
  Reactor.create (Server.create ~mac_key ~seed ?faults ?max_contracts ())

let server_registry reactor = Server.registry (Reactor.server reactor)

let client ?config ?registry ?tap ?faults reactor =
  Client.create ?config ?registry (Transport.loopback ?tap ?faults reactor)

(* Wire faults come from the one plan grammar the whole stack shares. *)
let inj ?registry s =
  match Ppj_fault.Plan.of_string s with
  | Ok plan -> Ppj_fault.Injector.create ?registry plan
  | Error e -> Alcotest.fail ("bad fault plan: " ^ e)

let ok = function Ok v -> v | Error e -> Alcotest.fail e

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.equal (String.sub s i n) sub || go (i + 1)) in
  n = 0 || go 0

(* --- framing --------------------------------------------------------- *)

let test_frame_roundtrip () =
  let frames =
    [ { Frame.tag = 1; seq = 0; payload = "" };
      { Frame.tag = 255; seq = Frame.max_seq; payload = "x" };
      { Frame.tag = 7; seq = 12345; payload = String.init 300 (fun i -> Char.chr (i mod 256)) };
    ]
  in
  let bytes = String.concat "" (List.map Frame.encode frames) in
  (* Deliver one byte at a time: frames must reassemble exactly. *)
  let d = Frame.Decoder.create () in
  let out = ref [] in
  String.iter
    (fun c ->
      Frame.Decoder.feed d (String.make 1 c);
      match Frame.Decoder.next d with
      | Ok (Some f) -> out := f :: !out
      | Ok None -> ()
      | Error e -> Alcotest.fail e)
    bytes;
  Alcotest.(check bool) "all frames recovered" true (List.rev !out = frames);
  Alcotest.(check int) "nothing left over" 0 (Frame.Decoder.buffered d)

let test_frame_rejects_oversized () =
  let d = Frame.Decoder.create () in
  let b = Buffer.create 8 in
  Buffer.add_int32_be b (Int32.of_int (Frame.max_payload + 6));
  Frame.Decoder.feed d (Buffer.contents b);
  match Frame.Decoder.next d with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "oversized length prefix accepted"

let test_frame_large_payload_chunked () =
  (* A ~1 MiB frame trickled in small chunks, then two small frames in
     one feed: the offset-based decoder must reassemble all three and
     end empty (this path was quadratic when the buffer was re-copied on
     every feed). *)
  let big = { Frame.tag = 9; seq = 41; payload = String.init (1 lsl 20) (fun i -> Char.chr (i land 0xff)) } in
  let small1 = { Frame.tag = 2; seq = 42; payload = "alpha" } in
  let small2 = { Frame.tag = 3; seq = 43; payload = "" } in
  let bytes = Frame.encode big ^ Frame.encode small1 ^ Frame.encode small2 in
  let d = Frame.Decoder.create () in
  let out = ref [] in
  let chunk = 4093 in
  let n = String.length bytes in
  let rec feed off =
    if off < n then begin
      Frame.Decoder.feed d (String.sub bytes off (min chunk (n - off)));
      let rec pop () =
        match Frame.Decoder.next d with
        | Ok (Some f) ->
            out := f :: !out;
            pop ()
        | Ok None -> ()
        | Error e -> Alcotest.fail e
      in
      pop ();
      feed (off + chunk)
    end
  in
  feed 0;
  Alcotest.(check bool) "all three frames recovered" true
    (List.rev !out = [ big; small1; small2 ]);
  Alcotest.(check int) "nothing left over" 0 (Frame.Decoder.buffered d)

(* --- message codecs -------------------------------------------------- *)

let trace_ctx = Ppj_obs.Trace_ctx.make ~trace_id:"trace-7" ~span_id:"span.2"

let stats_info =
  { Wire.server_version = "0.3.0";
    wire_version = 4;
    uptime_seconds = 12.5;
    sessions_active = 2;
    sessions_closed = 40;
    conns_live = 3;
    queue_bytes = 4096;
    store = Wire.Store_open { epoch = 9; sealed = true };
    ready = false;
  }

(* One value per message tag (the v2 and v3 attest forms both), every
   field set. *)
let sample_msgs =
  [ Wire.Attest_request { version = 1; ctx = None };
    Wire.Attest_request { version = 4; ctx = Some trace_ctx };
    Wire.Attest_chain
      [ { Ppj_scpu.Attestation.name = "boot"; code_digest = "d0"; mac = "m0" };
        { name = "service"; code_digest = "d1"; mac = "m1" };
      ];
    Wire.Hello { Ch.Handshake.id = "alice"; gx = 123456; mac = "m" };
    Wire.Hello_reply { Ch.Handshake.gy = 654321; mac = "mm" };
    Wire.Contract { sealed = "\x00\x01opaque" };
    Wire.Contract_ok;
    Wire.Upload_begin { sealed_schema = "s"; chunks = 3 };
    Wire.Upload_chunk { seq = 2; bytes = "chunk" };
    Wire.Upload_done;
    Wire.Upload_ok;
    Wire.Execute { sealed_config = "cfg" };
    Wire.Execute_ok { transfers = 42 };
    Wire.Fetch;
    Wire.Result { sealed_schema = "a"; sealed_body = "b" };
    Wire.Error { code = Wire.Auth_failed; message = "nope" };
    Wire.Stats_request;
    Wire.Stats_reply { info = stats_info; snapshot = "{\"schema\":\"ppj.obs/1\"}" };
  ]

(* One value per algorithm config form. *)
let sample_algorithms =
  [ Service.Alg1 { n = 3 };
    Service.Alg2 { n = 5 };
    Service.Alg3 { n = 2; attr_a = "key"; attr_b = "key" };
    Service.Alg4;
    Service.Alg5;
    Service.Alg6 { eps = 1e-12 };
    Service.Alg7 { attr_a = "key"; attr_b = "key" };
    Service.Alg8 { attr_a = "key"; attr_b = "key" };
    Service.Auto { max_eps = 1e-9 };
    Service.Sharded { k = 1; p = 4; inner = Service.Alg6 { eps = 0.5 } };
  ]

let test_wire_roundtrip () =
  List.iter
    (fun m ->
      match Wire.of_frame (Wire.to_frame m) with
      | Ok m' -> Alcotest.(check bool) "roundtrips" true (m = m')
      | Error e -> Alcotest.fail e)
    (Wire.Attest_chain (Service.attestation_chain ()) :: sample_msgs)

let test_codec_roundtrips () =
  (match Wire.contract_of_string (Wire.contract_to_string contract) with
  | Ok c -> Alcotest.(check bool) "contract" true (c = contract)
  | Error e -> Alcotest.fail e);
  (match Wire.schema_of_string (Wire.schema_to_string schema) with
  | Ok s -> Alcotest.(check bool) "schema" true (Schema.fields s = Schema.fields schema)
  | Error e -> Alcotest.fail e);
  List.iter
    (fun algorithm ->
      let cfg = service_config algorithm in
      match Wire.config_of_string (Wire.config_to_string cfg) with
      | Ok c -> Alcotest.(check bool) "config" true (c = cfg)
      | Error e -> Alcotest.fail e)
    sample_algorithms

(* The bytes every message, sealed control payload and durable body
   encodes to.  The pinned values are what earlier builds wrote: if one
   moves, a peer or a state directory of an earlier build no longer
   reads this build's bytes. *)
let test_formats_pinned () =
  let digest parts = Digest.to_hex (Digest.string (String.concat "\x00" parts)) in
  let a, _ = workload () in
  Alcotest.(check string) "frames and sealed payloads" "38460be72ba4ca0841d9e757db64c314"
    (digest
       (List.mapi (fun seq m -> Frame.encode (Wire.to_frame ~seq m)) sample_msgs
       @ List.map
           (fun algorithm -> Wire.config_to_string { Service.m = 4; seed = -9; algorithm })
           sample_algorithms
       @ [ Wire.contract_to_string contract;
           Wire.schema_to_string schema;
           Wire.submission_to_string { Ch.sender = "alice"; nonce = "n"; ciphertext = "c" };
         ]));
  Alcotest.(check string) "durable bodies" "ece2f390c7d82057cd7575908e018684"
    (digest
       [ Persist.submission_to_string schema a;
         Persist.result_to_string ~schema:(Wire.schema_to_string schema) ~transfers:297
           [ "o1"; ""; "o3" ];
       ])

module Gen = QCheck.Gen

let gen_str = Gen.(string_size ~gen:char (int_range 0 6))
let gen_id = Gen.(string_size ~gen:(char_range 'a' 'z') (int_range 1 8))
let gen_u16 = Gen.int_range 0 0xFFFF
let gen_u32 = Gen.int_range 0 0x7FFFFFFF

let gen_msg =
  let open Gen in
  let ctx =
    opt (map2 (fun trace_id span_id -> Ppj_obs.Trace_ctx.make ~trace_id ~span_id) gen_id gen_id)
  in
  let cert =
    map3
      (fun name code_digest mac -> { Ppj_scpu.Attestation.name; code_digest; mac })
      gen_str gen_str gen_str
  in
  let code =
    oneofl
      Wire.
        [ Unsupported_version; Bad_state; Auth_failed; Contract_rejected; Missing_submission;
          Malformed; Internal; Unavailable; Shard_unavailable ]
  in
  let store = opt (pair int bool) in
  let info =
    map3
      (fun (server_version, wire_version, uptime)
           (sessions_active, sessions_closed, conns_live, queue_bytes) (store, ready) ->
        { Wire.server_version;
          wire_version;
          uptime_seconds = float_of_int uptime /. 8.;
          sessions_active;
          sessions_closed;
          conns_live;
          queue_bytes;
          store =
            (match store with
            | None -> Wire.Store_none
            | Some (epoch, sealed) -> Wire.Store_open { epoch; sealed });
          ready;
        })
      (triple gen_str gen_u16 int) (quad int int int int) (pair store bool)
  in
  oneof
    [ map2 (fun version ctx -> Wire.Attest_request { version; ctx }) gen_u16 ctx;
      map (fun certs -> Wire.Attest_chain certs) (list_size (int_range 0 3) cert);
      map3 (fun id gx mac -> Wire.Hello { Ch.Handshake.id; gx; mac }) gen_str gen_u32 gen_str;
      map2 (fun gy mac -> Wire.Hello_reply { Ch.Handshake.gy; mac }) gen_u32 gen_str;
      map (fun sealed -> Wire.Contract { sealed }) gen_str;
      return Wire.Contract_ok;
      map2
        (fun sealed_schema chunks -> Wire.Upload_begin { sealed_schema; chunks })
        gen_str gen_u32;
      map2 (fun seq bytes -> Wire.Upload_chunk { seq; bytes }) gen_u32 gen_str;
      return Wire.Upload_done;
      return Wire.Upload_ok;
      map (fun sealed_config -> Wire.Execute { sealed_config }) gen_str;
      map (fun transfers -> Wire.Execute_ok { transfers }) int;
      return Wire.Fetch;
      map2
        (fun sealed_schema sealed_body -> Wire.Result { sealed_schema; sealed_body })
        gen_str gen_str;
      map2 (fun code message -> Wire.Error { code; message }) code gen_str;
      return Wire.Stats_request;
      map2 (fun info snapshot -> Wire.Stats_reply { info; snapshot }) info gen_str;
    ]

let test_frame_decoder_total =
  Totality.check "of_frame is total" ~print:(Format.asprintf "%a" Wire.pp) gen_msg
    ~encode:(fun m -> (Wire.to_frame m).Frame.payload)
    ~decode:(fun m payload -> Wire.of_frame { (Wire.to_frame m) with Frame.payload })

let test_submission_decoder_total =
  Totality.check "submission_of_string is total" ~count:100
    ~print:(fun (_, r) -> Format.asprintf "%a" Relation.pp r)
    Gen.(
      map3
        (fun seed n name ->
          (schema, W.uniform (Rng.create seed) ~name ~n ~key_domain:4))
        nat (int_range 0 3) gen_str)
    ~encode:(fun (schema, rel) -> Persist.submission_to_string schema rel)
    ~decode:(fun _ -> Persist.submission_of_string)

let test_checkpoint_decoder_total =
  let region =
    Gen.oneofl
      Ppj_scpu.Trace.[ Scratch; Buffer; Output; Disk; Checkpoint; Table "A"; Table "B" ]
  in
  Totality.check "checkpoint_of_string is total"
    ~print:(fun e -> Printf.sprintf "%d regions" (List.length e.Ppj_scpu.Host.e_regions))
    Gen.(
      map3
        (fun e_regions e_disk e_disk_tuples -> { Ppj_scpu.Host.e_regions; e_disk; e_disk_tuples })
        (list_size (int_range 0 3)
           (pair region (array_size (int_range 0 3) (opt gen_str))))
        (list_size (int_range 0 3) gen_str)
        gen_u32)
    ~encode:Persist.checkpoint_to_string
    ~decode:(fun _ -> Persist.checkpoint_of_string)

let test_result_decoder_total =
  Totality.check "result_of_string is total"
    ~print:(fun (s, t, o) -> Printf.sprintf "%S %d [%s]" s t (String.concat "; " o))
    Gen.(triple gen_str gen_u32 (list_size (int_range 0 4) gen_str))
    ~encode:(fun (schema, transfers, otuples) ->
      Persist.result_to_string ~schema ~transfers otuples)
    ~decode:(fun _ -> Persist.result_of_string)

let test_malformed_payload_rejected () =
  match Wire.of_frame { Frame.tag = 3; seq = 0; payload = "\x00\x00" } with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "truncated hello decoded"

let test_replies_echo_request_seq () =
  let server = Server.create ~mac_key () in
  let session = Server.open_session server in
  match
    Server.handle_frame server session
      (Wire.to_frame ~seq:77 (Wire.Attest_request { version = Wire.version; ctx = None }))
  with
  | [ f ] -> Alcotest.(check int) "seq echoed" 77 f.Frame.seq
  | l -> Alcotest.fail (Printf.sprintf "expected one reply, got %d" (List.length l))

(* --- loopback end to end --------------------------------------------- *)

let submit_over server id rel =
  let c = client ~config:no_sleep server in
  ok (Client.submit_relation c ~rng:(Rng.create (Hashtbl.hash id)) ~id ~mac_key ~contract ~schema rel);
  Client.close c

let fetch_over ?tap ?registry server algorithm =
  let c = client ~config:no_sleep ?registry ?tap server in
  let r =
    ok
      (Client.fetch_result c ~rng:(Rng.create 99) ~id:"carol" ~mac_key ~contract
         (service_config algorithm))
  in
  Client.close c;
  r

let run_loopback ?tap server algorithm =
  let a, b = workload () in
  (match tap with
  | Some _ ->
      (* share the tap across all three sessions so the adversary sees
         the whole exchange *)
      let submit_tapped id rel =
        let c = client ~config:no_sleep ?tap server in
        ok
          (Client.submit_relation c ~rng:(Rng.create (Hashtbl.hash id)) ~id ~mac_key ~contract
             ~schema rel);
        Client.close c
      in
      submit_tapped "alice" a;
      submit_tapped "bob" b
  | None ->
      submit_over server "alice" a;
      submit_over server "bob" b);
  fetch_over ?tap server algorithm

let test_loopback_matches_in_process algorithm () =
  let server = serve ~seed:5 () in
  let joined_schema, tuples = run_loopback server algorithm in
  Alcotest.(check bool) "joined schema arrives" true (Schema.fields joined_schema <> []);
  Alcotest.(check (list string))
    "byte-identical delivery"
    (in_process_delivery algorithm)
    (List.map T.encode tuples)

let test_server_metrics_exported () =
  let server = serve ~seed:5 () in
  let _ = run_loopback server Service.Alg4 in
  let snap = Registry.snapshot (server_registry server) in
  List.iter
    (fun name ->
      if Ppj_obs.Snapshot.find snap name = None then Alcotest.fail (name ^ " not exported"))
    [ "net.server.sessions.opened";
      "net.server.frames.in";
      "net.server.frames.out";
      "net.server.bytes.in";
      "net.server.bytes.out";
      "net.server.contracts.registered";
      "net.server.submissions.accepted";
      "net.server.joins.executed";
      "net.server.join.seconds";
    ]

(* --- the adversary's view of the wire -------------------------------- *)

let marked_relation ~name ~marker keys =
  let sch =
    Schema.make [ { Schema.name = "key"; ty = Schema.TInt }; { name = "tag"; ty = Schema.TStr 24 } ]
  in
  Relation.make ~name sch (List.map (fun k -> T.make sch [ Value.Int k; Value.Str marker ]) keys)

let secret_contract =
  { Ch.contract_id = "super-secret-contract-identifier";
    providers = [ "alice"; "bob" ];
    recipient = "carol";
    predicate = "eq(key,key)";
  }

let run_marked server tap marker ~keys_a ~keys_b =
  let sch = (marked_relation ~name:"A" ~marker [ 1 ]).Relation.schema in
  let a = marked_relation ~name:"A" ~marker keys_a in
  let b = marked_relation ~name:"B" ~marker keys_b in
  let submit id rel =
    let c = client ~config:no_sleep ~tap server in
    ok
      (Client.submit_relation c ~rng:(Rng.create (Hashtbl.hash id)) ~id ~mac_key
         ~contract:secret_contract ~schema:sch rel);
    Client.close c
  in
  submit "alice" a;
  submit "bob" b;
  let c = client ~config:no_sleep ~tap server in
  let r =
    ok
      (Client.fetch_result c ~rng:(Rng.create 99) ~id:"carol" ~mac_key ~contract:secret_contract
         (service_config Service.Alg4))
  in
  Client.close c;
  r

let test_wire_leaks_only_shape () =
  (* Two inputs of identical sizes but different contents: the captured
     frame sequences must have identical (dir, tag, length) shapes, and
     neither capture may contain any plaintext secret. *)
  let marker1 = "TOPSECRET-PAYLOAD-AAAAA" in
  let marker2 = "TOPSECRET-PAYLOAD-BBBBB" in
  let tap1 = Wiretap.create () in
  let tap2 = Wiretap.create () in
  let _ =
    run_marked (serve ~seed:5 ()) tap1 marker1 ~keys_a:[ 1; 2; 3; 4 ]
      ~keys_b:[ 2; 3; 4; 5 ]
  in
  let _ =
    run_marked (serve ~seed:5 ()) tap2 marker2 ~keys_a:[ 6; 7; 8; 9 ]
      ~keys_b:[ 7; 8; 9; 10 ]
  in
  Alcotest.(check bool)
    "same shape across same-shape inputs" true
    (Wiretap.shape tap1 = Wiretap.shape tap2);
  let markers =
    [ marker1; secret_contract.Ch.contract_id; secret_contract.Ch.predicate ]
  in
  (match Wiretap.leaks tap1 ~markers with
  | [] -> ()
  | (m, i) :: _ -> Alcotest.fail (Printf.sprintf "marker %S visible in frame %d" m i));
  (* Sanity-check the detector itself: the marker is present in what the
     provider encrypted, so a plaintext wire would have tripped it. *)
  Alcotest.(check bool)
    "detector sees plaintext when given one" true
    (Wiretap.leaks tap1 ~markers:[ "alice" ] <> [])

(* --- retries and timeouts -------------------------------------------- *)

let counter_value reg name = Counter.value (Registry.counter reg name)

let test_retry_recovers_from_drop () =
  let server = serve () in
  let sleeps = ref [] in
  let config =
    { Client.default_config with recv_timeout = 0.01; sleep = (fun d -> sleeps := d :: !sleeps) }
  in
  let reg = Registry.create () in
  let faults = inj ~registry:reg "drop@dir=to_client,tag=contract-ok" in
  let c = client ~config ~registry:reg ~faults server in
  ok (Client.attest c);
  ok (Client.handshake c ~rng:(Rng.create 1) ~id:"carol" ~mac_key);
  ok (Client.bind_contract c contract);
  Alcotest.(check int) "one retry" 1 (counter_value reg "net.client.retries");
  Alcotest.(check int) "one timeout" 1 (counter_value reg "net.client.timeouts");
  Alcotest.(check int) "one injected drop" 1 (counter_value reg "fault.net.drop");
  (* the first jittered sleep is exactly backoff_base *)
  Alcotest.(check (list (float 1e-9))) "one backoff sleep" [ 0.05 ] !sleeps

let test_retries_exhaust () =
  let server = serve () in
  let config =
    { Client.default_config with recv_timeout = 0.01; max_retries = 3; sleep = ignore }
  in
  let reg = Registry.create () in
  let faults = inj ~registry:reg "drop@dir=to_client,count=100" in
  let c = client ~config ~registry:reg ~faults server in
  (match Client.attest c with
  | Ok () -> Alcotest.fail "attest succeeded with every reply dropped"
  | Error e -> Alcotest.(check bool) "mentions attempts" true (contains ~sub:"4 attempt" e));
  Alcotest.(check int) "retries = max_retries" 3 (counter_value reg "net.client.retries");
  Alcotest.(check int) "a timeout per attempt" 4 (counter_value reg "net.client.timeouts");
  (* one reply dropped per attempt — the fault metrics account for every
     timeout the client saw *)
  Alcotest.(check int) "a drop per attempt" 4 (counter_value reg "fault.net.drop");
  Alcotest.(check int) "injected total matches" 4
    (Ppj_fault.Injector.injected faults)

let test_non_idempotent_not_retried () =
  let server = serve () in
  let reg = Registry.create () in
  let faults = inj ~registry:reg "drop@dir=to_client,tag=upload-ok" in
  let c = client ~config:no_sleep ~registry:reg ~faults server in
  let a, _ = workload () in
  ok (Client.attest c);
  ok (Client.handshake c ~rng:(Rng.create 2) ~id:"alice" ~mac_key);
  ok (Client.bind_contract c contract);
  (match Client.upload c ~schema a with
  | Ok () -> Alcotest.fail "upload succeeded with its ack dropped"
  | Error _ -> ());
  Alcotest.(check int) "upload not retried" 0 (counter_value reg "net.client.retries");
  Alcotest.(check int) "single timeout" 1 (counter_value reg "net.client.timeouts")

let test_execute_retry_is_idempotent () =
  (* A lost Execute_ok must not run the join twice: the retry is answered
     from the session's cached result. *)
  let server = serve ~seed:5 () in
  let a, b = workload () in
  submit_over server "alice" a;
  submit_over server "bob" b;
  let c = client ~config:no_sleep ~faults:(inj "drop@dir=to_client,tag=execute-ok") server in
  let _, tuples =
    ok
      (Client.fetch_result c ~rng:(Rng.create 99) ~id:"carol" ~mac_key ~contract
         (service_config Service.Alg4))
  in
  Alcotest.(check (list string))
    "delivery survives a lost execute ack"
    (in_process_delivery Service.Alg4)
    (List.map T.encode tuples);
  Alcotest.(check int) "join ran once" 1
    (counter_value (server_registry server) "net.server.joins.executed")

let test_slow_reply_duplicate_discarded () =
  (* The reply is slow, not lost: the plan's [delay] holds the first
     Execute_ok until the retry's duplicate passes, so two replies to the
     same seq sit buffered.  The client must consume one and discard the
     other instead of handing it to the next RPC (which used to fail
     with "unexpected reply" and desync the whole exchange). *)
  let server = serve ~seed:5 () in
  let a, b = workload () in
  submit_over server "alice" a;
  submit_over server "bob" b;
  let reg = Registry.create () in
  let faults = inj ~registry:reg "delay@dir=to_client,tag=execute-ok" in
  let c = client ~config:no_sleep ~registry:reg ~faults server in
  ok (Client.attest c);
  ok (Client.handshake c ~rng:(Rng.create 99) ~id:"carol" ~mac_key);
  ok (Client.bind_contract c contract);
  let _ = ok (Client.execute c (service_config Service.Alg4)) in
  let _, tuples = ok (Client.fetch c) in
  Alcotest.(check (list string))
    "delivery survives a slow execute ack"
    (in_process_delivery Service.Alg4)
    (List.map T.encode tuples);
  Alcotest.(check int) "execute retried once" 1 (counter_value reg "net.client.retries");
  Alcotest.(check int) "one injected delay" 1 (counter_value reg "fault.net.delay");
  Alcotest.(check int) "duplicate reply dropped" 1
    (counter_value reg "net.client.stale.dropped");
  Alcotest.(check int) "join ran once" 1
    (counter_value (server_registry server) "net.server.joins.executed")

let test_execute_config_change_recomputes () =
  (* A second Execute with a different config on the same session must
     not be served the first run's cached result. *)
  let server = serve ~seed:5 () in
  let a, b = workload () in
  submit_over server "alice" a;
  submit_over server "bob" b;
  let c = client ~config:no_sleep server in
  ok (Client.attest c);
  ok (Client.handshake c ~rng:(Rng.create 99) ~id:"carol" ~mac_key);
  ok (Client.bind_contract c contract);
  let joins () = counter_value (server_registry server) "net.server.joins.executed" in
  let _ = ok (Client.execute c (service_config Service.Alg4)) in
  Alcotest.(check int) "first execute runs the join" 1 (joins ());
  let _ = ok (Client.execute c (service_config Service.Alg4)) in
  Alcotest.(check int) "same config is served from cache" 1 (joins ());
  let _ = ok (Client.execute c (service_config Service.Alg5)) in
  Alcotest.(check int) "changed config recomputes" 2 (joins ());
  let _, tuples = ok (Client.fetch c) in
  Alcotest.(check (list string))
    "fetch delivers the latest config's result"
    (in_process_delivery Service.Alg5)
    (List.map T.encode tuples)

(* --- coprocessor crash, client retry, checkpoint resume --------------- *)

let test_crash_resume_over_loopback () =
  (* The coprocessor dies mid-join.  The server answers the Execute with
     a typed Unavailable and stashes the crashed instance; the client's
     retry of the same config resumes it from the last sealed checkpoint
     and the delivery is still byte-identical to the fault-free run. *)
  let reg = Registry.create () in
  let faults = inj ~registry:reg "crash@t=150;checkpoint@every=32" in
  let server = serve ~seed:5 ~faults () in
  let a, b = workload () in
  submit_over server "alice" a;
  submit_over server "bob" b;
  let c = client ~config:no_sleep ~registry:reg server in
  let _, tuples =
    ok
      (Client.fetch_result c ~rng:(Rng.create 99) ~id:"carol" ~mac_key ~contract
         (service_config Service.Alg5))
  in
  Alcotest.(check (list string))
    "delivery survives a coprocessor crash"
    (in_process_delivery Service.Alg5)
    (List.map T.encode tuples);
  Alcotest.(check int) "the crash was injected" 1 (counter_value reg "fault.scpu.crash");
  Alcotest.(check int) "client saw one unavailable" 1
    (counter_value reg "net.client.unavailable");
  let sreg = server_registry server in
  Alcotest.(check int) "server recorded the crash" 1
    (counter_value sreg "net.server.joins.crashed");
  Alcotest.(check int) "join concluded exactly once" 1
    (counter_value sreg "net.server.joins.executed")

(* --- chaos soak ------------------------------------------------------- *)

let test_chaos_soak_never_wrong () =
  (* Random-but-seeded plans against the full client/server stack: every
     run must end in the oracle's answer or a typed refusal — never a
     wrong answer (and, structurally, never a hang: nothing in the
     loopback stack sleeps). *)
  let reg = Registry.create () in
  let runs = Chaos.soak ~registry:reg ~seed0:1 ~runs:40 Chaos.wire in
  List.iter
    (fun r ->
      if not (Chaos.safe r) then
        Alcotest.fail
          (Printf.sprintf "seed %d plan %S: %s" r.Chaos.seed r.Chaos.plan
             (Chaos.outcome_to_string r.Chaos.outcome)))
    runs;
  Alcotest.(check int) "all runs counted" 40 (counter_value reg "chaos.runs");
  Alcotest.(check bool) "some runs complete correctly" true
    (List.exists (fun r -> r.Chaos.outcome = Chaos.Correct) runs);
  Alcotest.(check bool) "some faults actually fired" true
    (List.exists (fun r -> r.Chaos.injected > 0) runs)

let test_chaos_runs_are_reproducible () =
  (* The same seed must reproduce the same plan, the same firings and
     the same outcome — a chaos finding is a bug report, not an
     anecdote. *)
  let once = Chaos.soak ~seed0:1 ~runs:10 Chaos.wire in
  let again = Chaos.soak ~seed0:1 ~runs:10 Chaos.wire in
  List.iter2
    (fun r r' ->
      Alcotest.(check string)
        (Printf.sprintf "seed %d plan reproduces" r.Chaos.seed)
        r.Chaos.plan r'.Chaos.plan;
      Alcotest.(check string)
        (Printf.sprintf "seed %d outcome reproduces" r.Chaos.seed)
        (Chaos.outcome_to_string r.Chaos.outcome)
        (Chaos.outcome_to_string r'.Chaos.outcome);
      Alcotest.(check int)
        (Printf.sprintf "seed %d firings reproduce" r.Chaos.seed)
        r.Chaos.injected r'.Chaos.injected)
    once again

let test_chaos_recorded_runs_reproducible () =
  (* Under a flight recorder the client stamps a trace id into every
     attest request, where a corrupt-frame event can land on it.  Two
     pairs of recorders with different ids of the same length must still
     see the same soak, seed for seed. *)
  let soak trace_id =
    let recorder = Ppj_obs.Recorder.create ~name:"chaos" ~trace_id () in
    let server_recorder = Ppj_obs.Recorder.create ~name:"chaos-server" ~trace_id () in
    Chaos.soak ~seed0:1 ~runs:60 (Chaos.wire ~recorder ~server_recorder)
  in
  let once = soak "63f1a2b3c4d5e-0001" and again = soak "7000000000000-abcd" in
  List.iter2
    (fun r r' ->
      Alcotest.(check string)
        (Printf.sprintf "seed %d outcome" r.Chaos.seed)
        (Chaos.outcome_to_string r.Chaos.outcome)
        (Chaos.outcome_to_string r'.Chaos.outcome);
      Alcotest.(check int)
        (Printf.sprintf "seed %d firings" r.Chaos.seed)
        r.Chaos.injected r'.Chaos.injected)
    once again

let test_chaos_judge () =
  (* The judge is every soak's negative control: the oracle's tuples in
     any order are Correct, a delivery that drops, duplicates or
     replaces a tuple is Wrong, and errors split into tamper detections
     and typed refusals. *)
  let server = serve ~seed:5 () in
  let _, tuples = run_loopback server Service.Alg5 in
  let a, b = workload () in
  let expected =
    match Chaos.oracle (service_config Service.Alg5) ~contract [ (schema, a); (schema, b) ] with
    | Ok e -> e
    | Error e -> Alcotest.fail e
  in
  let verdict got = Chaos.outcome_to_string (Chaos.judge ~expected got) in
  Alcotest.(check string) "the delivery, reversed" "correct" (verdict (Ok (List.rev tuples)));
  let wrong = function Chaos.Wrong _ -> true | _ -> false in
  List.iter
    (fun (name, got) ->
      Alcotest.(check bool) name true (wrong (Chaos.judge ~expected (Ok got))))
    [ ("dropped", List.tl tuples);
      ("duplicated", List.hd tuples :: tuples);
      ("same size, one tuple replaced", List.nth tuples 1 :: List.tl tuples)
    ];
  Alcotest.(check bool) "tamper" true
    (Chaos.judge ~expected (Error "tamper detected: R D[3]") = Chaos.Tamper "tamper detected: R D[3]");
  Alcotest.(check string) "refusal" "refused: shard-unavailable"
    (verdict (Error "shard-unavailable"))

(* --- protocol error paths -------------------------------------------- *)

let reply_of server session msg =
  match Server.handle_frame server session (Wire.to_frame msg) with
  | [ f ] -> ok (Wire.of_frame f)
  | l -> Alcotest.fail (Printf.sprintf "expected one reply, got %d" (List.length l))

let check_error code = function
  | Wire.Error e when e.code = code -> ()
  | Wire.Error e -> Alcotest.fail ("wrong error: " ^ Wire.error_code_to_string e.code)
  | m -> Alcotest.fail (Format.asprintf "expected error, got %a" Wire.pp m)

let test_version_mismatch () =
  let server = Server.create ~mac_key () in
  let session = Server.open_session server in
  check_error Wire.Unsupported_version
    (reply_of server session (Wire.Attest_request { version = 99; ctx = None }))

let test_hello_before_attest () =
  let server = Server.create ~mac_key () in
  let session = Server.open_session server in
  let h, _ = Ch.Handshake.hello (Rng.create 3) ~id:"alice" ~mac_key in
  check_error Wire.Bad_state (reply_of server session (Wire.Hello h))

let test_wrong_mac_key_rejected () =
  let server = serve () in
  let c = client ~config:no_sleep server in
  ok (Client.attest c);
  match Client.handshake c ~rng:(Rng.create 4) ~id:"eve" ~mac_key:"not-the-real-mac-key" with
  | Ok () -> Alcotest.fail "handshake succeeded under the wrong identity key"
  | Error e ->
      Alcotest.(check bool) "typed auth failure" true (contains ~sub:"auth-failed" e)

let test_replayed_hello_rejected () =
  let server = Server.create ~mac_key () in
  let h, _ = Ch.Handshake.hello (Rng.create 5) ~id:"alice" ~mac_key in
  let s1 = Server.open_session server in
  let _ = reply_of server s1 (Wire.Attest_request { version = Wire.version; ctx = None }) in
  (match reply_of server s1 (Wire.Hello h) with
  | Wire.Hello_reply _ -> ()
  | m -> Alcotest.fail (Format.asprintf "expected hello-reply, got %a" Wire.pp m));
  (* An adversary replays the captured hello on a fresh connection. *)
  let s2 = Server.open_session server in
  let _ = reply_of server s2 (Wire.Attest_request { version = Wire.version; ctx = None }) in
  check_error Wire.Auth_failed (reply_of server s2 (Wire.Hello h))

let test_non_recipient_cannot_execute () =
  let server = serve () in
  let a, _ = workload () in
  let c = client ~config:no_sleep server in
  ok (Client.submit_relation c ~rng:(Rng.create 6) ~id:"alice" ~mac_key ~contract ~schema a);
  match Client.execute c (service_config Service.Alg4) with
  | Ok _ -> Alcotest.fail "a provider was allowed to execute"
  | Error e ->
      Alcotest.(check bool) "contract-rejected" true (contains ~sub:"contract-rejected" e)

let test_execute_before_uploads () =
  let server = serve () in
  let c = client ~config:no_sleep server in
  ok (Client.attest c);
  ok (Client.handshake c ~rng:(Rng.create 7) ~id:"carol" ~mac_key);
  ok (Client.bind_contract c contract);
  match Client.execute c (service_config Service.Alg4) with
  | Ok _ -> Alcotest.fail "execute succeeded with no submissions"
  | Error e ->
      Alcotest.(check bool) "missing-submission" true (contains ~sub:"missing-submission" e)

let establish server id =
  let session = Server.open_session server in
  let send msg = Server.handle_frame server session (Wire.to_frame msg) in
  let _ = send (Wire.Attest_request { version = Wire.version; ctx = None }) in
  let h, exponent = Ch.Handshake.hello (Rng.create 8) ~id ~mac_key in
  match send (Wire.Hello h) with
  | [ f ] -> (
      match ok (Wire.of_frame f) with
      | Wire.Hello_reply r -> (session, ok (Ch.Handshake.finish ~id ~mac_key ~exponent r))
      | m -> Alcotest.fail (Format.asprintf "expected hello-reply, got %a" Wire.pp m))
  | _ -> Alcotest.fail "handshake failed"

let test_contract_capacity_bounded () =
  let server = serve ~max_contracts:1 () in
  let c = client ~config:no_sleep server in
  ok (Client.attest c);
  ok (Client.handshake c ~rng:(Rng.create 12) ~id:"carol" ~mac_key);
  ok (Client.bind_contract c contract);
  (match Client.bind_contract c secret_contract with
  | Ok () -> Alcotest.fail "a second contract was registered past the capacity"
  | Error e ->
      Alcotest.(check bool) "typed rejection" true (contains ~sub:"contract-rejected" e);
      Alcotest.(check bool) "names the capacity" true (contains ~sub:"capacity" e));
  (* The already-registered contract can still be rebound. *)
  ok (Client.bind_contract c contract)

let test_out_of_order_chunk () =
  let server = Server.create ~mac_key () in
  let session, party = establish server "alice" in
  let send msg = Server.handle_frame server session (Wire.to_frame msg) in
  (match send (Wire.Contract { sealed = Ch.seal party (Wire.contract_to_string contract) }) with
  | [ f ] -> ( match ok (Wire.of_frame f) with Wire.Contract_ok -> () | _ -> Alcotest.fail "bind")
  | _ -> Alcotest.fail "bind failed");
  let sealed_schema = Ch.seal party (Wire.schema_to_string schema) in
  let _ = send (Wire.Upload_begin { sealed_schema; chunks = 2 }) in
  let _ = send (Wire.Upload_chunk { seq = 1; bytes = "later" }) in
  check_error Wire.Bad_state (reply_of server session Wire.Upload_done)

(* --- two OS processes over a Unix-domain socket ---------------------- *)

let test_unix_socket_two_process () =
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "ppj-net-test-%d.sock" (Unix.getpid ()))
  in
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  match Unix.fork () with
  | 0 ->
      (* Child: a separate OS process running the service. *)
      (try
         let server = Server.create ~mac_key ~seed:5 () in
         Reactor.serve_unix (Reactor.create server) ~path ~max_sessions:3 ()
       with _ -> ());
      Unix._exit 0
  | pid ->
      Fun.protect
        ~finally:(fun () ->
          (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        (fun () ->
          let connect () =
            let rec go n =
              match Transport.connect_unix ~path () with
              | Ok t -> t
              | Error e -> if n = 0 then Alcotest.fail e else (Unix.sleepf 0.05; go (n - 1))
            in
            go 100
          in
          let a, b = workload () in
          let submit id rel =
            let c = Client.create (connect ()) in
            ok
              (Client.submit_relation c ~rng:(Rng.create (Hashtbl.hash id)) ~id ~mac_key ~contract
                 ~schema rel);
            Client.close c
          in
          submit "alice" a;
          submit "bob" b;
          let c = Client.create (connect ()) in
          let _, tuples =
            ok
              (Client.fetch_result c ~rng:(Rng.create 99) ~id:"carol" ~mac_key ~contract
                 (service_config Service.Alg5))
          in
          Client.close c;
          Alcotest.(check (list string))
            "cross-process delivery is byte-identical"
            (in_process_delivery Service.Alg5)
            (List.map T.encode tuples))

let test_unix_socket_survives_dead_client () =
  (* A client that bursts requests and vanishes without reading a single
     reply: the server's queued replies land on a closed socket, so the
     writes raise EPIPE — which, with SIGPIPE at its default disposition,
     would kill the whole server process.  serve_unix must ignore SIGPIPE,
     tear down just that connection, and keep serving: a full join must
     still complete afterwards. *)
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "ppj-net-sigpipe-%d.sock" (Unix.getpid ()))
  in
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  match Unix.fork () with
  | 0 ->
      (try
         let server = Server.create ~mac_key ~seed:5 () in
         Reactor.serve_unix (Reactor.create server) ~path ~max_sessions:4 ()
       with _ -> ());
      Unix._exit 0
  | pid ->
      Fun.protect
        ~finally:(fun () ->
          (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        (fun () ->
          let connect () =
            let rec go n =
              match Transport.connect_unix ~path () with
              | Ok t -> t
              | Error e -> if n = 0 then Alcotest.fail e else (Unix.sleepf 0.05; go (n - 1))
            in
            go 100
          in
          (* the rude client: 64 requests, zero reads, immediate close *)
          let rude = connect () in
          let req =
            Frame.encode (Wire.to_frame ~seq:1 (Wire.Attest_request { version = Wire.version; ctx = None }))
          in
          for _ = 1 to 64 do
            rude.Transport.send req
          done;
          rude.Transport.close ();
          (* the server must still be alive and complete a join *)
          let a, b = workload () in
          let submit id rel =
            let c = Client.create (connect ()) in
            ok
              (Client.submit_relation c ~rng:(Rng.create (Hashtbl.hash id)) ~id ~mac_key ~contract
                 ~schema rel);
            Client.close c
          in
          submit "alice" a;
          submit "bob" b;
          let c = Client.create (connect ()) in
          let _, tuples =
            ok
              (Client.fetch_result c ~rng:(Rng.create 99) ~id:"carol" ~mac_key ~contract
                 (service_config Service.Alg4))
          in
          Client.close c;
          Alcotest.(check (list string))
            "join completes after a client died mid-reply"
            (in_process_delivery Service.Alg4)
            (List.map T.encode tuples))

let () =
  Alcotest.run "net"
    [ ( "frame",
        [ Alcotest.test_case "chunked roundtrip" `Quick test_frame_roundtrip;
          Alcotest.test_case "oversized rejected" `Quick test_frame_rejects_oversized;
          Alcotest.test_case "large payload in chunks" `Quick test_frame_large_payload_chunked;
        ] );
      ( "wire",
        [ Alcotest.test_case "message roundtrip" `Quick test_wire_roundtrip;
          Alcotest.test_case "payload codecs roundtrip" `Quick test_codec_roundtrips;
          Alcotest.test_case "malformed rejected" `Quick test_malformed_payload_rejected;
          Alcotest.test_case "formats pinned" `Quick test_formats_pinned;
          test_frame_decoder_total;
          test_submission_decoder_total;
          test_checkpoint_decoder_total;
          test_result_decoder_total;
          Alcotest.test_case "replies echo request seq" `Quick test_replies_echo_request_seq;
        ] );
      ( "loopback",
        [ Alcotest.test_case "alg4 matches in-process" `Quick
            (test_loopback_matches_in_process Service.Alg4);
          Alcotest.test_case "alg5 matches in-process" `Quick
            (test_loopback_matches_in_process Service.Alg5);
          Alcotest.test_case "alg7 matches in-process" `Quick
            (test_loopback_matches_in_process (Service.Alg7 { attr_a = "key"; attr_b = "key" }));
          Alcotest.test_case "server metrics exported" `Quick test_server_metrics_exported;
        ] );
      ( "adversary",
        [ Alcotest.test_case "wire leaks only shape" `Quick test_wire_leaks_only_shape ] );
      ( "retry",
        [ Alcotest.test_case "recovers from a dropped reply" `Quick test_retry_recovers_from_drop;
          Alcotest.test_case "bounded retries exhaust" `Quick test_retries_exhaust;
          Alcotest.test_case "non-idempotent steps fail fast" `Quick
            test_non_idempotent_not_retried;
          Alcotest.test_case "execute retry reuses cached result" `Quick
            test_execute_retry_is_idempotent;
          Alcotest.test_case "slow duplicate reply is discarded" `Quick
            test_slow_reply_duplicate_discarded;
          Alcotest.test_case "changed execute config recomputes" `Quick
            test_execute_config_change_recomputes;
        ] );
      ( "recovery",
        [ Alcotest.test_case "crash resumes from checkpoint" `Quick
            test_crash_resume_over_loopback ] );
      ( "chaos",
        [ Alcotest.test_case "soak is never wrong, never hung" `Quick
            test_chaos_soak_never_wrong;
          Alcotest.test_case "runs are seed-reproducible" `Quick
            test_chaos_runs_are_reproducible;
          Alcotest.test_case "recorded runs are seed-reproducible" `Quick
            test_chaos_recorded_runs_reproducible;
          Alcotest.test_case "judge catches wrong deliveries" `Quick test_chaos_judge;
        ] );
      ( "errors",
        [ Alcotest.test_case "version mismatch" `Quick test_version_mismatch;
          Alcotest.test_case "hello before attest" `Quick test_hello_before_attest;
          Alcotest.test_case "wrong mac key" `Quick test_wrong_mac_key_rejected;
          Alcotest.test_case "replayed hello" `Quick test_replayed_hello_rejected;
          Alcotest.test_case "non-recipient execute" `Quick test_non_recipient_cannot_execute;
          Alcotest.test_case "execute before uploads" `Quick test_execute_before_uploads;
          Alcotest.test_case "contract capacity bounded" `Quick test_contract_capacity_bounded;
          Alcotest.test_case "out-of-order chunk" `Quick test_out_of_order_chunk;
        ] );
      ( "unix",
        [ Alcotest.test_case "two-process join over a socket" `Quick
            test_unix_socket_two_process;
          Alcotest.test_case "server survives a client dying mid-reply" `Quick
            test_unix_socket_survives_dead_client;
        ] );
    ]
