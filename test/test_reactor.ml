(* The reactor server core: the poll(2) readiness layer (EINTR must not
   shorten a wait), admission control / queue-overflow shedding / idle
   and slowloris eviction with typed unavailable refusals, the seeded
   deterministic scheduler whose interleavings must match the serial
   oracle and reproduce byte-identical flight-recorder timelines, and
   the open-loop load generator against a real Unix-domain socket.  The
   chaos soaks in test_net cross the reactor too: every in-process
   session does. *)

open Ppj_net
module Ch = Ppj_scpu.Channel
module W = Ppj_relation.Workload
module P = Ppj_relation.Predicate
module T = Ppj_relation.Tuple
module Rng = Ppj_crypto.Rng
module Service = Ppj_core.Service
module Registry = Ppj_obs.Registry
module Counter = Ppj_obs.Counter
module Recorder = Ppj_obs.Recorder

let mac_key = "test-reactor-mac-key"
let schema = W.keyed_schema ()

let contract =
  { Ch.contract_id = "contract-reactor-001";
    providers = [ "alice"; "bob" ];
    recipient = "carol";
    predicate = "eq(key,key)";
  }

let workload () =
  let rng = Rng.create 7 in
  W.equijoin_pair rng ~na:8 ~nb:12 ~matches:9 ~max_multiplicity:3

let config = { Service.m = 4; seed = 7; algorithm = Service.Alg5 }

let oracle () =
  let pa = Ch.party ~id:"alice" ~secret:(String.make 16 'a') in
  let pb = Ch.party ~id:"bob" ~secret:(String.make 16 'b') in
  let pc = Ch.party ~id:"carol" ~secret:(String.make 16 'c') in
  let a, b = workload () in
  match
    Service.run config ~contract
      ~submissions:
        [ (pa, schema, Ch.submit pa contract a); (pb, schema, Ch.submit pb contract b) ]
      ~recipient:pc ~predicate:(P.equijoin2 "key" "key")
  with
  | Ok o -> List.sort compare (List.map T.encode o.Service.delivered)
  | Error e -> Alcotest.fail ("oracle failed: " ^ e)

let counter_value server name = Counter.value (Registry.counter (Server.registry server) name)

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.equal (String.sub s i n) sub || go (i + 1)) in
  n = 0 || go 0

(* --- poller ---------------------------------------------------------- *)

let test_poller_readiness () =
  let r, w = Unix.pipe () in
  Fun.protect
    ~finally:(fun () ->
      Unix.close r;
      Unix.close w)
    (fun () ->
      (* nothing to read yet: the wait times out empty *)
      let readable, writable = Poller.wait ~read:[ r ] ~write:[] ~timeout:0.01 in
      Alcotest.(check bool) "quiet pipe not readable" true (readable = [] && writable = []);
      (* the write end of a fresh pipe is writable *)
      let _, writable = Poller.wait ~read:[] ~write:[ w ] ~timeout:0.5 in
      Alcotest.(check bool) "pipe writable" true (List.mem w writable);
      ignore (Unix.write_substring w "x" 0 1);
      let readable, _ = Poller.wait ~read:[ r ] ~write:[] ~timeout:0.5 in
      Alcotest.(check bool) "pipe readable after write" true (List.mem r readable))

let test_poller_survives_eintr () =
  (* A signal storm during the wait: the old select loop surfaced EINTR
     as an instant empty result (and the client's recv as a spurious
     timeout).  The poller must absorb the interrupts and still honour
     the caller's full deadline. *)
  let r, w = Unix.pipe () in
  let fired = ref 0 in
  let prev = Sys.signal Sys.sigalrm (Sys.Signal_handle (fun _ -> incr fired)) in
  let prev_timer =
    Unix.setitimer Unix.ITIMER_REAL { Unix.it_value = 0.02; it_interval = 0.02 }
  in
  Fun.protect
    ~finally:(fun () ->
      ignore (Unix.setitimer Unix.ITIMER_REAL prev_timer);
      Sys.set_signal Sys.sigalrm prev;
      Unix.close r;
      Unix.close w)
    (fun () ->
      let t0 = Unix.gettimeofday () in
      let readable, writable = Poller.wait ~read:[ r ] ~write:[] ~timeout:0.2 in
      let elapsed = Unix.gettimeofday () -. t0 in
      Alcotest.(check bool) "interrupts fired during the wait" true (!fired > 0);
      Alcotest.(check bool) "result still empty" true (readable = [] && writable = []);
      Alcotest.(check bool)
        (Printf.sprintf "waited the full deadline (%.3fs elapsed)" elapsed)
        true (elapsed >= 0.15))

(* --- reactor engine -------------------------------------------------- *)

let make_server ?recorder ?registry () =
  Server.create ?recorder ?registry ~mac_key ~seed:5 ()

let attest_frame ~seq =
  Frame.encode (Wire.to_frame ~seq (Wire.Attest_request { version = Wire.version; ctx = None }))

(* Pump one flow against one reactor connection to completion: all
   pending bytes cross in both directions each step.  Deterministic and
   sleep-free; a protocol hang shows up as [None] after [max_steps]. *)
let drive ?(max_steps = 10_000) reactor conn flow =
  let steps = ref 0 in
  while Flow.outcome flow = None && !steps < max_steps do
    incr steps;
    (match Flow.pending flow with
    | Some (b, off) ->
        let n = String.length b - off in
        Reactor.feed reactor conn ~now:0. (String.sub b off n);
        Flow.sent flow n
    | None -> ());
    (match Reactor.pending conn with
    | Some (s, off) ->
        let n = String.length s - off in
        Reactor.wrote conn n;
        Flow.on_bytes flow (String.sub s off n)
    | None -> ());
    if Reactor.finished conn then begin
      Reactor.close reactor conn;
      Flow.on_eof flow
    end
  done;
  Flow.outcome flow

let flow ~seed id goal = Flow.create ~rng:(Rng.create seed) ~id ~mac_key ~contract goal

let run_session reactor f =
  let conn = Reactor.connect reactor ~now:0. ~peer:(Flow.id f) in
  let outcome = drive reactor conn f in
  Reactor.close reactor conn;
  outcome

let test_reactor_full_join () =
  let server = make_server () in
  let reactor = Reactor.create server in
  let a, b = workload () in
  (match run_session reactor (flow ~seed:11 "alice" (Flow.Submit { schema; relation = a })) with
  | Some Flow.Submitted -> ()
  | o -> Alcotest.failf "alice: %s" (match o with Some (Flow.Refused e) -> e | _ -> "no outcome"));
  (match run_session reactor (flow ~seed:12 "bob" (Flow.Submit { schema; relation = b })) with
  | Some Flow.Submitted -> ()
  | _ -> Alcotest.fail "bob upload failed");
  match run_session reactor (flow ~seed:13 "carol" (Flow.Join { config })) with
  | Some (Flow.Delivered tuples) ->
      Alcotest.(check (list string))
        "reactor path delivers the oracle's tuples" (oracle ()) (List.sort compare tuples)
  | Some (Flow.Refused e) -> Alcotest.fail e
  | _ -> Alcotest.fail "carol got no delivery"

let test_admission_shed () =
  let server = make_server () in
  let limits = { Reactor.default_limits with max_conns = 2 } in
  let reactor = Reactor.create ~limits server in
  let c1 = Reactor.connect reactor ~now:0. ~peer:"one" in
  let _c2 = Reactor.connect reactor ~now:0. ~peer:"two" in
  Alcotest.(check int) "two admitted" 2 (Reactor.live reactor);
  (* the third is refused: its first frame is answered with a typed
     unavailable echoing that frame's seq, then the connection closes *)
  let refused = flow ~seed:21 "carol" (Flow.Join { config }) in
  (match run_session reactor refused with
  | Some (Flow.Refused e) ->
      Alcotest.(check bool) ("typed unavailable: " ^ e) true (contains ~sub:"unavailable" e)
  | _ -> Alcotest.fail "over-capacity connection was not refused");
  Alcotest.(check int) "shed counted" 1 (counter_value server "net.server.admission.shed");
  Alcotest.(check int) "live count undisturbed" 2 (Reactor.live reactor);
  (* capacity freed: a new connection is admitted and works *)
  Reactor.close reactor c1;
  match run_session reactor (flow ~seed:22 "carol" (Flow.Join { config })) with
  | Some (Flow.Refused e) ->
      (* no submissions yet: execute retries exhaust on missing-submission,
         but the connection itself was admitted and answered *)
      Alcotest.(check bool) "admitted and answered" true (contains ~sub:"missing" e)
  | _ -> ()

let test_overload_shed_typed_unavailable () =
  let server = make_server () in
  (* a cap two attestation-chain replies overflow *)
  let chain_reply =
    let probe = Reactor.create (make_server ()) in
    let c = Reactor.connect probe ~now:0. ~peer:"probe" in
    Reactor.feed probe c ~now:0. (attest_frame ~seq:1);
    match Reactor.pending c with
    | Some (s, _) -> String.length s
    | None -> Alcotest.fail "no attest reply"
  in
  let limits = { Reactor.default_limits with max_queue_bytes = (2 * chain_reply) - 1 } in
  let reactor = Reactor.create ~limits server in
  let conn = Reactor.connect reactor ~now:0. ~peer:"slow-reader" in
  (* a client that requests without ever reading replies *)
  for seq = 1 to 4 do
    Reactor.feed reactor conn ~now:0. (attest_frame ~seq)
  done;
  Alcotest.(check int) "overload shed counted" 1
    (counter_value server "net.server.overload.shed");
  (* drain what the reactor kept: it must end in a typed unavailable,
     and the connection must be finished, never hung *)
  let out = Buffer.create 256 in
  let rec pump () =
    match Reactor.pending conn with
    | None -> ()
    | Some (s, off) ->
        Buffer.add_string out (String.sub s off (String.length s - off));
        Reactor.wrote conn (String.length s - off);
        pump ()
  in
  pump ();
  Alcotest.(check bool) "connection closes after the goodbye" true (Reactor.finished conn);
  let dec = Frame.Decoder.create () in
  Frame.Decoder.feed dec (Buffer.contents out);
  let last = ref None in
  let rec collect () =
    match Frame.Decoder.next dec with
    | Ok (Some f) ->
        last := Some f;
        collect ()
    | Ok None -> ()
    | Error e -> Alcotest.fail ("shed stream must stay frame-aligned: " ^ e)
  in
  collect ();
  match !last with
  | Some f -> (
      match Wire.of_frame f with
      | Ok (Wire.Error { code = Wire.Unavailable; message }) ->
          Alcotest.(check bool) "names the overload" true (contains ~sub:"overload" message)
      | _ -> Alcotest.fail "last frame is not a typed unavailable")
  | None -> Alcotest.fail "nothing queued at all"

let test_idle_eviction () =
  let server = make_server () in
  let limits = { Reactor.default_limits with idle_timeout = 5. } in
  let reactor = Reactor.create ~limits server in
  let conn = Reactor.connect reactor ~now:0. ~peer:"silent" in
  Reactor.feed reactor conn ~now:1. (attest_frame ~seq:1);
  (* still within the window *)
  Alcotest.(check int) "no hard expiry yet" 0 (List.length (Reactor.sweep reactor ~now:5.));
  Alcotest.(check int) "not evicted inside the window" 0
    (counter_value server "net.server.evicted.idle");
  (* silence past the timeout: marked closing with a goodbye queued *)
  ignore (Reactor.sweep reactor ~now:6.5);
  Alcotest.(check int) "evicted" 1 (counter_value server "net.server.evicted.idle");
  Alcotest.(check bool) "reads stop" false (Reactor.wants_read conn);
  (* the peer never drains: a further timeout hard-expires it *)
  let expired = Reactor.sweep reactor ~now:12.5 in
  Alcotest.(check int) "hard-expired for teardown" 1 (List.length expired);
  Alcotest.(check int) "session not yet released" 0 (Server.sessions_closed server);
  List.iter (fun c -> Reactor.close reactor c) expired;
  Alcotest.(check int) "session state released" 1 (Server.sessions_closed server)

let test_slowloris_evicted_healthy_survives () =
  let server = make_server () in
  let limits = { Reactor.default_limits with idle_timeout = 5. } in
  let reactor = Reactor.create ~limits server in
  (* the slowloris: one byte of a valid frame per virtual second — bytes
     keep arriving but no frame ever completes, so the idle clock (which
     only advances on decoded frames) runs out anyway *)
  let loris = Reactor.connect reactor ~now:0. ~peer:"slowloris" in
  let frame = attest_frame ~seq:1 in
  for i = 0 to 6 do
    Reactor.feed reactor loris ~now:(float_of_int i) (String.sub frame i 1)
  done;
  ignore (Reactor.sweep reactor ~now:6.5);
  Alcotest.(check int) "slowloris evicted despite trickling bytes" 1
    (counter_value server "net.server.evicted.idle");
  Alcotest.(check bool) "marked closing" false (Reactor.wants_read loris);
  (* a healthy session on the same reactor is undisturbed *)
  let healthy = Reactor.connect reactor ~now:6.5 ~peer:"healthy" in
  Reactor.feed reactor healthy ~now:6.6 (attest_frame ~seq:1);
  (match Reactor.pending healthy with
  | Some _ -> ()
  | None -> Alcotest.fail "healthy session got no reply");
  Alcotest.(check bool) "healthy still read" true (Reactor.wants_read healthy)

let test_malformed_flood_isolated () =
  let server = make_server () in
  let reactor = Reactor.create server in
  (* a flood of undecodable garbage on several connections *)
  let garbage = String.concat "" [ "\xff\xff\xff\xff"; String.make 64 '\xee' ] in
  let floods =
    List.init 3 (fun i ->
        let c = Reactor.connect reactor ~now:0. ~peer:(Printf.sprintf "flood-%d" i) in
        Reactor.feed reactor c ~now:0. garbage;
        (* closing: later garbage is discarded, not decoded *)
        Reactor.feed reactor c ~now:0. garbage;
        c)
  in
  Alcotest.(check int) "each flood counted once" 3
    (counter_value server "net.server.evicted.malformed");
  List.iter
    (fun c ->
      let typed = ref false in
      let rec pump () =
        match Reactor.pending c with
        | None -> ()
        | Some (s, off) ->
            let dec = Frame.Decoder.create () in
            Frame.Decoder.feed dec (String.sub s off (String.length s - off));
            Reactor.wrote c (String.length s - off);
            (match Frame.Decoder.next dec with
            | Ok (Some f) -> (
                match Wire.of_frame f with
                | Ok (Wire.Error { code = Wire.Malformed; _ }) -> typed := true
                | _ -> ())
            | _ -> ());
            pump ()
      in
      pump ();
      Alcotest.(check bool) "typed malformed goodbye" true !typed;
      Alcotest.(check bool) "flood connection finished" true (Reactor.finished c);
      Reactor.close reactor c)
    floods;
  (* healthy sessions on the same reactor complete a full join *)
  let a, b = workload () in
  ignore (run_session reactor (flow ~seed:31 "alice" (Flow.Submit { schema; relation = a })));
  ignore (run_session reactor (flow ~seed:32 "bob" (Flow.Submit { schema; relation = b })));
  match run_session reactor (flow ~seed:33 "carol" (Flow.Join { config })) with
  | Some (Flow.Delivered tuples) ->
      Alcotest.(check (list string))
        "join unharmed by the flood" (oracle ()) (List.sort compare tuples)
  | _ -> Alcotest.fail "healthy join disturbed by malformed flood"

let test_backpressure_stops_reads () =
  let server = make_server () in
  let limits = { Reactor.default_limits with high_water_bytes = 64 } in
  let reactor = Reactor.create ~limits server in
  let conn = Reactor.connect reactor ~now:0. ~peer:"slow" in
  Alcotest.(check bool) "reads wanted while drained" true (Reactor.wants_read conn);
  Reactor.feed reactor conn ~now:0. (attest_frame ~seq:1);
  (* the queued chain reply exceeds the high-water mark *)
  Alcotest.(check bool) "reads paused above high water" false (Reactor.wants_read conn);
  let rec pump () =
    match Reactor.pending conn with
    | None -> ()
    | Some (s, off) ->
        Reactor.wrote conn (String.length s - off);
        pump ()
  in
  pump ();
  Alcotest.(check bool) "reads resume once drained" true (Reactor.wants_read conn)

(* --- deterministic simulated transport ------------------------------- *)

let sim_flows () =
  let a, b = workload () in
  flow ~seed:101 "alice" (Flow.Submit { schema; relation = a })
  :: flow ~seed:102 "bob" (Flow.Submit { schema; relation = b })
  :: List.init 7 (fun i -> flow ~seed:(200 + i) "carol" (Flow.Join { config }))

let check_sim_outcomes seed (r : Sim.result) =
  let expected = oracle () in
  List.iteri
    (fun i o ->
      match (i, o) with
      | _, None -> Alcotest.failf "seed %d: session %d hung (no outcome)" seed i
      | (0 | 1), Some Flow.Submitted -> ()
      | (0 | 1), Some _ -> Alcotest.failf "seed %d: provider %d did not conclude upload" seed i
      | _, Some (Flow.Delivered tuples) ->
          Alcotest.(check (list string))
            (Printf.sprintf "seed %d session %d matches the serial oracle" seed i)
            expected (List.sort compare tuples)
      | _, Some (Flow.Refused e) -> Alcotest.failf "seed %d: session %d refused: %s" seed i e
      | _, Some Flow.Submitted -> Alcotest.failf "seed %d: recipient %d submitted?" seed i)
    r.Sim.outcomes

(* The tentpole property: 20 seeded schedules of 9 concurrent sessions,
   every session's result equal to the serial oracle, and the server's
   flight-recorder timeline byte-identical when the seed is replayed. *)
let test_sim_matches_oracle_across_seeds () =
  let step_counts = ref [] in
  for seed = 1 to 20 do
    let server = make_server () in
    let r = Sim.run ~seed ~server (sim_flows ()) in
    check_sim_outcomes seed r;
    step_counts := r.Sim.steps :: !step_counts
  done;
  (* different seeds genuinely schedule differently *)
  Alcotest.(check bool) "schedules vary across seeds" true
    (List.length (List.sort_uniq compare !step_counts) > 1)

let sim_run_with_timeline seed =
  let recorder = Recorder.create ~name:"server" ~trace_id:"sim-determinism" () in
  let server = make_server ~recorder () in
  let r = Sim.run ~seed ~server (sim_flows ()) in
  (r, Recorder.timeline recorder)

let test_sim_replay_identical () =
  List.iter
    (fun seed ->
      let r1, t1 = sim_run_with_timeline seed in
      let r2, t2 = sim_run_with_timeline seed in
      Alcotest.(check int)
        (Printf.sprintf "seed %d: same step count" seed)
        r1.Sim.steps r2.Sim.steps;
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: same outcomes" seed)
        true (r1.Sim.outcomes = r2.Sim.outcomes);
      Alcotest.(check string)
        (Printf.sprintf "seed %d: timeline byte-identical" seed)
        t1 t2)
    [ 1; 7; 13 ]

let test_sim_idle_eviction_virtual_time () =
  (* an aggressively short virtual idle window: sessions get evicted
     mid-protocol whenever the scheduler starves them, and the property
     is that every session still concludes — eviction surfaces as a
     typed refusal or eof, never a hang, all in simulated time *)
  let server = make_server () in
  let limits = { Reactor.default_limits with idle_timeout = 0.05 (* 50 virtual steps *) } in
  let a, b = workload () in
  let flows =
    [ flow ~seed:301 "alice" (Flow.Submit { schema; relation = a });
      flow ~seed:302 "bob" (Flow.Submit { schema; relation = b });
      flow ~seed:303 "carol" (Flow.Join { config });
    ]
  in
  let r = Sim.run ~limits ~seed:5 ~server flows in
  (* everyone still concludes: eviction surfaces as refusal/eof, never a hang *)
  List.iteri
    (fun i o ->
      match o with
      | None -> Alcotest.failf "session %d hung under idle eviction" i
      | Some _ -> ())
    r.Sim.outcomes

(* --- the in-process loopback crosses the reactor ---------------------- *)

let test_loopback_admitted_by_the_reactor () =
  (* [Transport.loopback] is a reactor connection like a socket's: it
     counts toward [net.server.conns.live] and admission, and a refused
     one reads the typed goodbye, then a closed peer. *)
  let server = make_server () in
  let reactor = Reactor.create ~limits:{ Reactor.default_limits with max_conns = 1 } server in
  let config =
    { Client.default_config with recv_timeout = 0.05; max_retries = 0; sleep = ignore }
  in
  let first = Client.create ~config (Transport.loopback reactor) in
  (match Client.stats first with
  | Ok (info, _) ->
      Alcotest.(check int) "the scrape counts its own connection" 1 info.Wire.conns_live
  | Error e -> Alcotest.fail e);
  let second = Client.create ~config (Transport.loopback reactor) in
  (match Client.attest second with
  | Ok () -> Alcotest.fail "a connection past max_conns was served"
  | Error e ->
      Alcotest.(check bool) ("typed unavailable: " ^ e) true (contains ~sub:"unavailable" e));
  Alcotest.(check int) "shed counted" 1 (counter_value server "net.server.admission.shed");
  (match Client.attest second with
  | Ok () -> Alcotest.fail "the refused connection was served"
  | Error e -> Alcotest.(check bool) ("then closed: " ^ e) true (contains ~sub:"closed" e));
  Client.close second;
  Alcotest.(check int) "still one live" 1 (Reactor.live reactor);
  Client.close first;
  Alcotest.(check int) "all released" 0 (Reactor.live reactor)

(* --- real sockets ---------------------------------------------------- *)

let sock_path tag =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "ppj-reactor-%s-%d.sock" tag (Unix.getpid ()))

let with_server_child ~key ~limits ?max_sessions ~path k =
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  match Unix.fork () with
  | 0 ->
      (try
         let server = Server.create ~mac_key:key ~seed:5 () in
         Reactor.serve_unix (Reactor.create ~limits server) ~path ?max_sessions ()
       with _ -> ());
      Unix._exit 0
  | pid ->
      Fun.protect
        ~finally:(fun () ->
          (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        (fun () -> k pid)

let test_loadgen_over_socket () =
  let path = sock_path "loadgen" in
  with_server_child ~key:Loadgen.mac_key ~limits:Reactor.default_limits ~path (fun _pid ->
      let spec =
        { Loadgen.default_spec with
          sessions = 40;
          session_deadline = 30.;
          wall_deadline = 60.;
        }
      in
      match Loadgen.run ~spec ~path () with
      | Error e -> Alcotest.fail e
      | Ok stats ->
          Alcotest.(check int) "all sessions completed" 40 stats.Loadgen.completed;
          Alcotest.(check int) "no wrong answers" 0 stats.Loadgen.wrong;
          Alcotest.(check int) "no hung sessions" 0 stats.Loadgen.hung;
          Alcotest.(check bool) "burst arrivals overlapped" true
            (stats.Loadgen.max_concurrent >= 20);
          Alcotest.(check bool) "latency measured" true (stats.Loadgen.p99 > 0.))

let test_idle_eviction_over_socket () =
  (* A connected-but-silent client must not pin server state: with a
     short idle timeout the server evicts it (typed unavailable, then
     close), a concurrent join completes undisturbed, and the evicted
     session's closure counts toward max_sessions — so the server child
     exiting at all proves the silent client released its state. *)
  let path = sock_path "idle" in
  let limits = { Reactor.default_limits with idle_timeout = 0.3 } in
  with_server_child ~key:mac_key ~limits ~max_sessions:4 ~path (fun pid ->
      let connect () =
        let rec go n =
          match Transport.connect_unix ~path () with
          | Ok t -> t
          | Error e -> if n = 0 then Alcotest.fail e else (Unix.sleepf 0.05; go (n - 1))
        in
        go 100
      in
      (* the silent client: one attest, then nothing, never closed by us *)
      let silent = connect () in
      silent.Transport.send (attest_frame ~seq:1);
      (* a full join on other connections while the silent one idles *)
      let a, b = workload () in
      let submit id rel =
        let c = Client.create (connect ()) in
        (match
           Client.submit_relation c
             ~rng:(Rng.create (Hashtbl.hash id))
             ~id ~mac_key ~contract ~schema rel
         with
        | Ok () -> ()
        | Error e -> Alcotest.fail e);
        Client.close c
      in
      submit "alice" a;
      submit "bob" b;
      let c = Client.create (connect ()) in
      (match
         Client.fetch_result c ~rng:(Rng.create 99) ~id:"carol" ~mac_key ~contract config
       with
      | Ok (_, tuples) ->
          Alcotest.(check bool) "join delivered" true (tuples <> [])
      | Error e -> Alcotest.fail e);
      Client.close c;
      (* the silent client's wire: attest chain, then the eviction's
         typed unavailable, then EOF *)
      let dec = Frame.Decoder.create () in
      let saw_unavailable = ref false in
      let deadline = Unix.gettimeofday () +. 10. in
      (try
         while (not !saw_unavailable) && Unix.gettimeofday () < deadline do
           (match silent.Transport.recv ~timeout:0.25 with
           | Some bytes -> Frame.Decoder.feed dec bytes
           | None -> ());
           let rec pump () =
             match Frame.Decoder.next dec with
             | Ok (Some f) ->
                 (match Wire.of_frame f with
                 | Ok (Wire.Error { code = Wire.Unavailable; message }) ->
                     Alcotest.(check bool) "names idleness" true (contains ~sub:"idle" message);
                     saw_unavailable := true
                 | _ -> ());
                 pump ()
             | _ -> ()
           in
           pump ()
         done
       with Transport.Closed -> ());
      Alcotest.(check bool) "silent client got the typed eviction" true !saw_unavailable;
      (* the server reaches max_sessions only if the evicted session
         closed: waitpid must conclude without our SIGTERM *)
      let rec reap n =
        match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ -> if n = 0 then Alcotest.fail "server still pinned by the silent client"
                  else (Unix.sleepf 0.1; reap (n - 1))
        | _ -> ()
      in
      reap 100)

let () =
  Alcotest.run "reactor"
    [ ( "poller",
        [ Alcotest.test_case "poll backend readiness" `Quick test_poller_readiness;
          Alcotest.test_case "poll absorbs EINTR" `Quick test_poller_survives_eintr;
        ] );
      ( "overload",
        [ Alcotest.test_case "full join through the reactor" `Quick test_reactor_full_join;
          Alcotest.test_case "admission cap sheds typed unavailable" `Quick test_admission_shed;
          Alcotest.test_case "queue overflow sheds typed unavailable" `Quick
            test_overload_shed_typed_unavailable;
          Alcotest.test_case "idle session evicted" `Quick test_idle_eviction;
          Alcotest.test_case "slowloris evicted, healthy survives" `Quick
            test_slowloris_evicted_healthy_survives;
          Alcotest.test_case "malformed flood isolated" `Quick test_malformed_flood_isolated;
          Alcotest.test_case "backpressure pauses reads" `Quick test_backpressure_stops_reads;
        ] );
      ( "sim",
        [ Alcotest.test_case "20 seeds match the serial oracle" `Quick
            test_sim_matches_oracle_across_seeds;
          Alcotest.test_case "replay is byte-identical" `Quick test_sim_replay_identical;
          Alcotest.test_case "idle eviction in virtual time" `Quick
            test_sim_idle_eviction_virtual_time;
        ] );
      ( "loopback path",
        [ Alcotest.test_case "admitted and counted by the reactor" `Quick
            test_loopback_admitted_by_the_reactor;
        ] );
      ( "unix",
        [ Alcotest.test_case "loadgen over a real socket" `Quick test_loadgen_over_socket;
          Alcotest.test_case "silent client evicted over a real socket" `Quick
            test_idle_eviction_over_socket;
        ] );
    ]
