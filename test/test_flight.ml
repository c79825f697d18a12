(* The flight recorder end to end: trace-context validation, recorder
   semantics (hierarchy, ring buffer, attribute whitelist, adoption),
   structured logging, the wire-level context stamp, a real two-process
   crash-resume join whose spans must form ONE connected trace, and the
   recorder-level privacy property — same-shape inputs must produce
   byte-identical timelines under every safe algorithm, and must NOT
   under the naive nested loop. *)

open Ppj_net
module Obs = Ppj_obs
module Recorder = Obs.Recorder
module Trace_ctx = Obs.Trace_ctx
module Log = Obs.Log
module Json = Obs.Json
module Clock = Obs.Clock
module Ch = Ppj_scpu.Channel
module W = Ppj_relation.Workload
module P = Ppj_relation.Predicate
module T = Ppj_relation.Tuple
module Rng = Ppj_crypto.Rng
module Service = Ppj_core.Service
module Instance = Ppj_core.Instance

let ok = function Ok v -> v | Error e -> Alcotest.fail e

(* --- Trace_ctx ------------------------------------------------------- *)

let test_ctx_of_strings () =
  let c = ok (Trace_ctx.of_strings ~trace_id:"65853486de148-6350" ~span_id:"cli-7") in
  Alcotest.(check string) "trace id" "65853486de148-6350" (Trace_ctx.trace_id c);
  Alcotest.(check string) "span id" "cli-7" (Trace_ctx.span_id c);
  Alcotest.(check (option string)) "parent of a real span" (Some "cli-7") (Trace_ctx.parent c);
  let root = ok (Trace_ctx.of_strings ~trace_id:"t1" ~span_id:Trace_ctx.root_span) in
  Alcotest.(check (option string)) "root span has no parent" None (Trace_ctx.parent root)

let test_ctx_rejects_bad_ids () =
  let bad ~trace_id ~span_id =
    match Trace_ctx.of_strings ~trace_id ~span_id with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "accepted trace_id=%S span_id=%S" trace_id span_id
  in
  bad ~trace_id:"" ~span_id:"0";
  bad ~trace_id:"has space" ~span_id:"0";
  bad ~trace_id:(String.make 33 'a') ~span_id:"0";
  bad ~trace_id:"ok" ~span_id:"semi;colon";
  bad ~trace_id:"ok" ~span_id:"";
  Alcotest.check_raises "make raises on bad input" (Invalid_argument "trace_ctx: bad trace_id")
    (fun () -> ignore (Trace_ctx.make ~trace_id:"no/slash" ~span_id:"0"))

(* --- Recorder: hierarchy and the deterministic timeline -------------- *)

let test_timeline_hierarchy () =
  let r = Recorder.create ~name:"t" () in
  Recorder.with_span r ~attrs:[ ("n", Recorder.int 3) ] "outer" (fun () ->
      Recorder.event r ~attrs:[ ("k", Recorder.int 1) ] "tick";
      Recorder.with_span r "inner" (fun () -> Recorder.event r "tock"));
  Alcotest.(check string) "indent mirrors the span tree"
    "* outer n=3\n  - tick k=1\n  * inner\n    - tock\n" (Recorder.timeline r)

let test_ring_drops_oldest () =
  let r = Recorder.create ~capacity:4 ~name:"t" () in
  for i = 0 to 9 do
    Recorder.event r (Printf.sprintf "e%d" i)
  done;
  Alcotest.(check int) "dropped count" 6 (Recorder.dropped r);
  Alcotest.(check string) "newest four survive, drop header present"
    "# dropped=6\n- e6\n- e7\n- e8\n- e9\n" (Recorder.timeline r);
  Alcotest.check_raises "capacity must be positive"
    (Invalid_argument "Recorder.create: capacity must be >= 1") (fun () ->
      ignore (Recorder.create ~capacity:0 ~name:"t" ()))

let test_attr_whitelist () =
  let rejected s =
    try
      ignore (Recorder.sym s);
      false
    with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "empty rejected" true (rejected "");
  Alcotest.(check bool) "65 chars rejected" true (rejected (String.make 65 'x'));
  Alcotest.(check bool) "newline rejected" true (rejected "a\nb");
  Alcotest.(check bool) "raw bytes rejected" true (rejected "a\x01b");
  Alcotest.(check bool) "printable accepted" true
    (match Recorder.sym "alg5" with Recorder.Sym _ -> true | _ -> false)

(* Pull a field out of a perfetto event's [args] object. *)
let arg_str key ev =
  match Option.bind (Json.member "args" ev) (Json.member key) with
  | Some (Json.Str s) -> Some s
  | _ -> None

let name_of ev = match Json.member "name" ev with Some (Json.Str s) -> Some s | _ -> None

let find_span events sname =
  match List.find_opt (fun e -> name_of e = Some sname) events with
  | Some e -> e
  | None -> Alcotest.failf "no %S span in trace" sname

let test_ctx_adopt_links_processes () =
  let cli = Recorder.create ~trace_id:"tid-1" ~name:"cli" () in
  let span = Recorder.start_span cli "submit" in
  let ctx = Recorder.ctx cli in
  Alcotest.(check string) "ctx carries the open span" span (Trace_ctx.span_id ctx);
  let srv = Recorder.create ~name:"srv" () in
  Recorder.adopt srv ctx;
  Alcotest.(check string) "server joins the client's trace" "tid-1" (Recorder.trace_id srv);
  Recorder.with_span srv "handshake" (fun () -> ());
  Recorder.end_span cli;
  let events = ok (Recorder.events_of (Recorder.to_perfetto srv)) in
  let hs = find_span events "handshake" in
  Alcotest.(check (option string)) "server root span is parented across the wire"
    (Some span) (arg_str "parent_id" hs);
  Alcotest.(check (option string)) "trace id exported" (Some "tid-1") (arg_str "trace_id" hs)

let test_adopt_keeps_earlier_ids () =
  (* A span names the trace that was current when it started: adopting
     a second context must not relabel the first context's spans. *)
  let r = Recorder.create ~name:"srv" () in
  let adopt id = Recorder.adopt r (Trace_ctx.make ~trace_id:id ~span_id:Trace_ctx.root_span) in
  adopt "tid-a";
  Recorder.with_span r "first" (fun () -> ());
  adopt "tid-b";
  Recorder.with_span r "second" (fun () -> ());
  let events = ok (Recorder.events_of (Recorder.to_perfetto r)) in
  Alcotest.(check (list (option string)))
    "A, then B" [ Some "tid-a"; Some "tid-b" ]
    (List.map (fun n -> arg_str "trace_id" (find_span events n)) [ "first"; "second" ])

let test_ctx_without_open_span_is_root () =
  let cli = Recorder.create ~trace_id:"tid-2" ~name:"cli" () in
  let ctx = Recorder.ctx cli in
  Alcotest.(check string) "idle client sends the root span" Trace_ctx.root_span
    (Trace_ctx.span_id ctx);
  let srv = Recorder.create ~name:"srv" () in
  Recorder.adopt srv ctx;
  Recorder.with_span srv "handshake" (fun () -> ());
  let events = ok (Recorder.events_of (Recorder.to_perfetto srv)) in
  Alcotest.(check (option string)) "no parent when the client had no open span" None
    (arg_str "parent_id" (find_span events "handshake"))

let test_explicit_parent_for_resume () =
  (* The resume pattern: the original join span is long closed when the
     retry arrives, so the resume span names it as parent explicitly. *)
  let r = Recorder.create ~name:"srv" () in
  let join_id = ref "" in
  Recorder.with_span r "join" (fun () -> join_id := Option.get (Recorder.current_span_id r));
  Recorder.with_span r ~parent:!join_id "resume" (fun () -> ());
  let events = ok (Recorder.events_of (Recorder.to_perfetto r)) in
  let join = find_span events "join" and resume = find_span events "resume" in
  Alcotest.(check (option string)) "resume is parented under the original join"
    (arg_str "span_id" join) (arg_str "parent_id" resume)

let test_perfetto_shape_and_merge () =
  let r = Recorder.create ~name:"proc" () in
  Recorder.with_span r "work" (fun () -> Recorder.event r "mark");
  let trace = Recorder.to_perfetto r in
  (match ok (Recorder.events_of trace) with
  | meta :: rest ->
      Alcotest.(check (option string)) "leading process_name metadata"
        (Some "M")
        (match Json.member "ph" meta with Some (Json.Str s) -> Some s | _ -> None);
      Alcotest.(check int) "span + event follow" 2 (List.length rest)
  | [] -> Alcotest.fail "empty traceEvents");
  let r2 = Recorder.create ~name:"other" () in
  Recorder.event r2 "solo";
  let merged = ok (Recorder.merge [ trace; Recorder.to_perfetto r2 ]) in
  Alcotest.(check int) "merge concatenates both processes" 5
    (List.length (ok (Recorder.events_of merged)));
  match Recorder.events_of (Json.Obj [ ("nope", Json.Null) ]) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "events_of accepted a non-trace object"

(* --- structured logging ---------------------------------------------- *)

let with_fake_clock t f =
  Clock.set_source (fun () -> t);
  Fun.protect ~finally:Clock.reset_source f

let capture_log ?level () =
  let lines = ref [] in
  let log = Log.create ?level ~sink:(fun s -> lines := s :: !lines) ~name:"test" () in
  (log, fun () -> List.rev !lines)

let test_log_line_format () =
  with_fake_clock 12.5 (fun () ->
      let log, lines = capture_log ~level:Log.Debug () in
      Log.info log ~kv:[ ("alg", "alg5"); ("peer", "alice smith") ] "join executed";
      Log.debug log "plain";
      Alcotest.(check (list string)) "tokenisable key=value lines"
        [ "ts=12.500000 level=info logger=test msg=\"join executed\" alg=alg5 peer=\"alice smith\"";
          "ts=12.500000 level=debug logger=test msg=plain"
        ]
        (lines ()))

let test_log_level_filtering () =
  with_fake_clock 1.0 (fun () ->
      let log, lines = capture_log ~level:Log.Warn () in
      Log.debug log "hidden";
      Log.info log "hidden";
      Log.warn log "shown";
      Log.error log "shown too";
      Alcotest.(check int) "only warn and error pass" 2 (List.length (lines ()));
      Log.set_level log Log.Debug;
      Log.debug log "now visible";
      Alcotest.(check int) "set_level opens the gate" 3 (List.length (lines ())))

let test_log_level_of_string () =
  Alcotest.(check bool) "warning aliases warn" true (Log.level_of_string "warning" = Ok Log.Warn);
  Alcotest.(check bool) "case-insensitive" true (Log.level_of_string "INFO" = Ok Log.Info);
  Alcotest.(check bool) "unknown rejected" true
    (match Log.level_of_string "loud" with Error _ -> true | Ok _ -> false)

(* --- the wire-level context stamp ------------------------------------ *)

let test_wire_ctx_roundtrip () =
  let ctx = Trace_ctx.make ~trace_id:"abc-123" ~span_id:"cli-7" in
  (match Wire.of_frame (Wire.to_frame ~seq:3 (Wire.Attest_request { version = Wire.version; ctx = Some ctx })) with
  | Ok (Wire.Attest_request { version; ctx = Some c }) ->
      Alcotest.(check int) "version" Wire.version version;
      Alcotest.(check string) "trace id" "abc-123" (Trace_ctx.trace_id c);
      Alcotest.(check string) "span id" "cli-7" (Trace_ctx.span_id c)
  | Ok _ -> Alcotest.fail "decoded to a different message"
  | Error e -> Alcotest.fail e);
  match Wire.of_frame (Wire.to_frame (Wire.Attest_request { version = Wire.version; ctx = None })) with
  | Ok (Wire.Attest_request { ctx = None; _ }) -> ()
  | Ok _ -> Alcotest.fail "ctx materialised out of nothing"
  | Error e -> Alcotest.fail e

let test_wire_accepts_bare_v2_payload () =
  (* A v2 client's Attest_request is the two version bytes and nothing
     else; the v3 decoder must read it as "no context", not reject it. *)
  match Wire.of_frame { Frame.tag = 1; seq = 0; payload = "\x00\x02" } with
  | Ok (Wire.Attest_request { version = 2; ctx = None }) -> ()
  | Ok _ -> Alcotest.fail "bare v2 payload misdecoded"
  | Error e -> Alcotest.fail e

let test_wire_rejects_bad_ctx_ids () =
  (* Flag says "context follows" but the trace id violates the charset:
     the decoder must refuse rather than let junk ids into the recorder. *)
  let b = Buffer.create 32 in
  Buffer.add_uint16_be b 3;
  Buffer.add_uint8 b 1;
  Buffer.add_int32_be b 6l;
  Buffer.add_string b "bad id";
  Buffer.add_int32_be b 1l;
  Buffer.add_string b "0";
  match Wire.of_frame { Frame.tag = 1; seq = 0; payload = Buffer.contents b } with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted a malformed trace id"

(* --- two OS processes: one crash-resume join, one connected trace ---- *)

let mac_key = "test-flight-mac-key"
let schema = W.keyed_schema ()

let contract =
  { Ch.contract_id = "contract-flight-001";
    providers = [ "alice"; "bob" ];
    recipient = "carol";
    predicate = "eq(key,key)";
  }

let workload () =
  let rng = Rng.create 11 in
  W.equijoin_pair rng ~na:12 ~nb:18 ~matches:14 ~max_multiplicity:3

let service_config = { Service.m = 4; seed = 9; algorithm = Service.Alg5 }

let in_process_delivery () =
  let pa = Ch.party ~id:"alice" ~secret:(String.make 16 'a') in
  let pb = Ch.party ~id:"bob" ~secret:(String.make 16 'b') in
  let pc = Ch.party ~id:"carol" ~secret:(String.make 16 'c') in
  let a, b = workload () in
  match
    Service.run service_config ~contract
      ~submissions:
        [ (pa, schema, Ch.submit pa contract a); (pb, schema, Ch.submit pb contract b) ]
      ~recipient:pc ~predicate:(P.equijoin2 "key" "key")
  with
  | Ok o -> List.map T.encode o.Service.delivered
  | Error e -> Alcotest.fail e

let trace_ids events =
  List.sort_uniq compare (List.filter_map (arg_str "trace_id") events)

let test_chaos_corrupt_attest_keeps_client_id () =
  (* Seed 1's plan corrupts the attest frame where the client stamped its
     trace context.  The server adopts the mangled id on its own
     recorder; every client item keeps the run's id. *)
  let recorder = Recorder.create ~name:"chaos" () in
  let server_recorder = Recorder.create ~name:"chaos-server" () in
  let run = Chaos.wire ~recorder ~server_recorder 1 in
  let ids r =
    match Recorder.events_of (Recorder.to_perfetto r) with
    | Ok events -> trace_ids events
    | Error e -> Alcotest.fail e
  in
  Alcotest.(check string) "the run's outcome" "correct" (Chaos.outcome_to_string run.Chaos.outcome);
  Alcotest.(check bool) "the server saw a mangled id" true
    (List.exists (fun id -> id <> "chaos-1") (ids server_recorder));
  Alcotest.(check (list string)) "client items" [ "chaos-1" ] (ids recorder)

let test_two_process_crash_resume_trace () =
  let tmp name =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "ppj-flight-%s-%d" name (Unix.getpid ()))
  in
  let path = tmp "sock" and trace_path = tmp "srv.json" in
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  match Unix.fork () with
  | 0 ->
      (* Child: the service under a crash plan, exporting its trace on exit. *)
      (try
         let recorder = Recorder.create ~name:"server" () in
         let faults =
           match Ppj_fault.Plan.of_string "crash@t=60" with
           | Ok plan -> Ppj_fault.Injector.create plan
           | Error e -> failwith e
         in
         let server =
           Server.create ~recorder ~mac_key ~seed:5 ~faults ~checkpoint_every:16 ()
         in
         Reactor.serve_unix (Reactor.create server) ~path ~max_sessions:3 ();
         let oc = open_out trace_path in
         output_string oc (Json.to_string (Recorder.to_perfetto recorder));
         close_out oc
       with _ -> ());
      Unix._exit 0
  | pid ->
      Fun.protect
        ~finally:(fun () ->
          (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
          (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
          try Sys.remove trace_path with Sys_error _ -> ())
        (fun () ->
          let connect () =
            let rec go n =
              match Transport.connect_unix ~path () with
              | Ok t -> t
              | Error e -> if n = 0 then Alcotest.fail e else (Unix.sleepf 0.05; go (n - 1))
            in
            go 100
          in
          (* One client-side recorder across all three sessions, so the
             whole exchange is one trace. *)
          let recorder = Recorder.create ~name:"client" () in
          let a, b = workload () in
          let submit id rel =
            let c = Client.create ~recorder (connect ()) in
            ok
              (Client.submit_relation c ~rng:(Rng.create (Hashtbl.hash id)) ~id ~mac_key ~contract
                 ~schema rel);
            Client.close c
          in
          submit "alice" a;
          submit "bob" b;
          let c = Client.create ~recorder (connect ()) in
          let _, tuples =
            ok (Client.fetch_result c ~rng:(Rng.create 99) ~id:"carol" ~mac_key ~contract service_config)
          in
          Client.close c;
          Alcotest.(check (list string)) "delivery survives the crash byte-identically"
            (in_process_delivery ()) (List.map T.encode tuples);
          (* Wait for the child to flush its trace, then join the two halves. *)
          ignore (Unix.waitpid [] pid);
          let ic = open_in trace_path in
          let srv_trace =
            Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
                ok (Json.of_string (really_input_string ic (in_channel_length ic))))
          in
          let cli_trace = Recorder.to_perfetto recorder in
          let srv = ok (Recorder.events_of srv_trace) in
          let cli = ok (Recorder.events_of cli_trace) in
          let names = List.filter_map name_of srv in
          Alcotest.(check bool) "the injected crash is on the record" true
            (List.mem "fault.crash" names);
          Alcotest.(check (list string)) "both processes share one trace id"
            (trace_ids cli) (trace_ids srv);
          Alcotest.(check int) "exactly one trace id" 1 (List.length (trace_ids srv));
          let join = find_span srv "join" and resume = find_span srv "resume" in
          Alcotest.(check (option string)) "resume is parented under the crashed join"
            (arg_str "span_id" join) (arg_str "parent_id" resume);
          (* Client execute span exists and the merged trace is well-formed. *)
          ignore (find_span cli "execute");
          let merged = ok (Recorder.merge [ cli_trace; srv_trace ]) in
          Alcotest.(check int) "merge keeps every event"
            (List.length cli + List.length srv)
            (List.length (ok (Recorder.events_of merged))))

(* Two sessions on one server, interleaved message by message: each
   server span carries its own session's trace id and parent, not those
   of the session that attested last. *)
let test_interleaved_sessions_keep_their_ids () =
  let srv = Recorder.create ~name:"server" () in
  let reactor = Reactor.create (Server.create ~recorder:srv ~mac_key ~seed:5 ()) in
  let session id =
    let recorder = Recorder.create ~trace_id:("tid-" ^ id) ~name:id () in
    let span = Recorder.start_span recorder "session" in
    (Client.create ~recorder (Transport.loopback reactor), span)
  in
  let alice, alice_span = session "alice" and bob, bob_span = session "bob" in
  ok (Client.attest alice);
  ok (Client.attest bob);
  ok (Client.handshake alice ~rng:(Rng.create 1) ~id:"alice" ~mac_key);
  ok (Client.handshake bob ~rng:(Rng.create 2) ~id:"bob" ~mac_key);
  Client.close alice;
  Client.close bob;
  let handshakes =
    List.filter
      (fun e -> name_of e = Some "handshake")
      (ok (Recorder.events_of (Recorder.to_perfetto srv)))
  in
  Alcotest.(check (list (pair (option string) (option string))))
    "each handshake span in its own session's trace"
    [ (Some "tid-alice", Some alice_span); (Some "tid-bob", Some bob_span) ]
    (List.map (fun e -> (arg_str "trace_id" e, arg_str "parent_id" e)) handshakes)

(* --- recorder-level privacy: timelines are data-independent ---------- *)

(* Mirror of test_privacy_prop, one level up: instead of the
   coprocessor's access trace we compare the flight recorder's rendered
   timeline (every span, event and attribute, minus timestamps and ids).
   With [event_batch:1] the recorder ticks on every live transfer, so a
   data-dependent operation count or attribute would break equality. *)

let pred = P.equijoin2 "key" "key"
let runs_per_property = 10

type shape = { na : int; nb : int; mult : int; matches : int; s1 : int; s2 : int }

let shape_gen =
  let open QCheck.Gen in
  let* na = int_range 4 9 in
  let* nb = int_range 4 12 in
  let* mult = int_range 1 3 in
  let* matches = int_range 1 (min nb (na * mult)) in
  let* s1 = int_range 0 9999 in
  let* s2 = int_range 0 9999 in
  let s2 = if s2 = s1 then s2 + 10000 else s2 in
  return { na; nb; mult; matches; s1; s2 }

let pp_shape sh =
  Printf.sprintf "{na=%d; nb=%d; mult=%d; matches=%d; s1=%d; s2=%d}" sh.na sh.nb sh.mult
    sh.matches sh.s1 sh.s2

let shape_arb = QCheck.make ~print:pp_shape shape_gen

let timeline_of ~na ~nb ~matches ~mult ~data_seed run =
  let rng = Rng.create data_seed in
  let a, b = W.equijoin_pair rng ~na ~nb ~matches ~max_multiplicity:mult in
  let recorder = Recorder.create ~name:"t" () in
  let inst =
    Instance.create ~recorder ~event_batch:1 ~m:3 ~seed:1234 ~predicate:pred [ a; b ]
  in
  ignore (run inst);
  Recorder.timeline recorder

let structure_case ~qcheck_seed name run =
  let cell =
    QCheck.Test.make_cell ~count:runs_per_property ~name shape_arb (fun sh ->
        let tl s =
          timeline_of ~na:sh.na ~nb:sh.nb ~matches:sh.matches ~mult:sh.mult ~data_seed:s run
        in
        String.equal (tl sh.s1) (tl sh.s2))
  in
  Alcotest.test_case name `Quick (fun () ->
      QCheck.Test.check_cell_exn ~rand:(Random.State.make [| qcheck_seed |]) cell)

let safe_algorithms =
  let open Ppj_core in
  [ ("algorithm 1", fun i -> ignore (Algorithm1.run i ~n:3));
    ("algorithm 1 variant", fun i -> ignore (Algorithm1.Variant.run i ~n:3));
    ("algorithm 2", fun i -> ignore (Algorithm2.run i ~n:3 ()));
    ("algorithm 3", fun i -> ignore (Algorithm3.run i ~n:3 ~attr_a:"key" ~attr_b:"key" ()));
    ("algorithm 4", fun i -> ignore (Algorithm4.run i ()));
    ("algorithm 5", fun i -> ignore (Algorithm5.run i));
    ("algorithm 6", fun i -> ignore (Algorithm6.run i ~eps:1e-12 ()))
  ]

let structure_cases =
  List.mapi
    (fun k (name, run) -> structure_case ~qcheck_seed:(5353 + k) name run)
    safe_algorithms

(* Negative control: the naive nested loop's transfer count follows the
   match count, so pairs with different match counts must render
   different timelines — otherwise the equalities above are vacuous. *)
let control_gen =
  let open QCheck.Gen in
  let* na = int_range 4 9 in
  let* nb = int_range 4 12 in
  let* m1 = int_range 0 (min nb na) in
  let* m2 = int_range 0 (min nb na - 1) in
  let m2 = if m2 >= m1 then m2 + 1 else m2 in
  let* s = int_range 0 9999 in
  return (na, nb, m1, m2, s)

let control_arb =
  QCheck.make
    ~print:(fun (na, nb, m1, m2, s) ->
      Printf.sprintf "{na=%d; nb=%d; m1=%d; m2=%d; s=%d}" na nb m1 m2 s)
    control_gen

let control_case =
  let naive i = ignore (Ppj_core.Unsafe.naive_nested_loop i) in
  let cell =
    QCheck.Test.make_cell ~count:runs_per_property ~name:"naive nested loop leaks"
      control_arb (fun (na, nb, m1, m2, s) ->
        let tl matches data_seed =
          timeline_of ~na ~nb ~matches ~mult:1 ~data_seed naive
        in
        not (String.equal (tl m1 s) (tl m2 (s + 1))))
  in
  Alcotest.test_case "naive nested loop leaks" `Quick (fun () ->
      QCheck.Test.check_cell_exn ~rand:(Random.State.make [| 888 |]) cell)

let () =
  Alcotest.run "flight"
    [ ( "trace-ctx",
        [ Alcotest.test_case "of_strings accepts valid ids" `Quick test_ctx_of_strings;
          Alcotest.test_case "rejects bad ids" `Quick test_ctx_rejects_bad_ids
        ] );
      ( "recorder",
        [ Alcotest.test_case "timeline hierarchy" `Quick test_timeline_hierarchy;
          Alcotest.test_case "ring drops oldest" `Quick test_ring_drops_oldest;
          Alcotest.test_case "attribute whitelist" `Quick test_attr_whitelist;
          Alcotest.test_case "ctx/adopt links processes" `Quick test_ctx_adopt_links_processes;
          Alcotest.test_case "adopt keeps earlier ids" `Quick test_adopt_keeps_earlier_ids;
          Alcotest.test_case "idle ctx is root" `Quick test_ctx_without_open_span_is_root;
          Alcotest.test_case "explicit resume parent" `Quick test_explicit_parent_for_resume;
          Alcotest.test_case "perfetto shape and merge" `Quick test_perfetto_shape_and_merge
        ] );
      ( "log",
        [ Alcotest.test_case "line format" `Quick test_log_line_format;
          Alcotest.test_case "level filtering" `Quick test_log_level_filtering;
          Alcotest.test_case "level_of_string" `Quick test_log_level_of_string
        ] );
      ( "wire-ctx",
        [ Alcotest.test_case "roundtrip" `Quick test_wire_ctx_roundtrip;
          Alcotest.test_case "bare v2 payload tolerated" `Quick test_wire_accepts_bare_v2_payload;
          Alcotest.test_case "bad ctx ids rejected" `Quick test_wire_rejects_bad_ctx_ids;
          Alcotest.test_case "interleaved sessions keep their ids" `Quick
            test_interleaved_sessions_keep_their_ids;
          Alcotest.test_case "chaos: corrupted attest keeps the client's id" `Quick
            test_chaos_corrupt_attest_keeps_client_id
        ] );
      ( "two-process",
        [ Alcotest.test_case "crash-resume is one connected trace" `Quick
            test_two_process_crash_resume_trace
        ] );
      ("structure-privacy", structure_cases @ [ control_case ])
    ]
