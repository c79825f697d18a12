(* Fault injection and crash recovery: the plan DSL, the injector's
   one-shot/window semantics, every tamper detection path, sealed
   checkpoint/resume (correctness, rollback rejection, and the extended
   privacy definitions), and client-visible behavior under fault plans. *)

open Ppj_core
module Plan = Ppj_fault.Plan
module Injector = Ppj_fault.Injector
module Trace = Ppj_scpu.Trace
module Host = Ppj_scpu.Host
module Co = Ppj_scpu.Coprocessor
module W = Ppj_relation.Workload
module P = Ppj_relation.Predicate
module T = Ppj_relation.Tuple
module Rng = Ppj_crypto.Rng
module Registry = Ppj_obs.Registry
module Snapshot = Ppj_obs.Snapshot

let counter reg name =
  match Snapshot.find (Registry.snapshot reg) name with
  | Some { Snapshot.value = Snapshot.Counter n; _ } -> n
  | _ -> 0

let tuple_set l = List.sort compare (List.map (fun t -> Format.asprintf "%a" T.pp t) l)

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let plan s =
  match Plan.of_string s with
  | Ok p -> p
  | Error e -> Alcotest.failf "plan %S rejected: %s" s e

(* --- Plan DSL --- *)

let test_plan_roundtrip () =
  let strings =
    [ "crash@t=40";
      "corrupt@t=3";
      "replay@t=7";
      "drop";
      "drop@dir=to_client,tag=execute-ok,skip=1,count=3";
      "dup@dir=to_server";
      "delay@tag=execute,count=2";
      "corrupt-frame@dir=to_client";
      "timeout@recv=2";
      "crash@t=12;checkpoint@every=8";
      "corrupt@t=1;drop@count=2;timeout@recv=0;checkpoint@every=16";
    ]
  in
  List.iter
    (fun s ->
      let p = plan s in
      let s' = Plan.to_string p in
      let p' = plan s' in
      if p <> p' then Alcotest.failf "plan %S does not roundtrip (canonical %S)" s s')
    strings;
  (* Canonical form is stable. *)
  let p = plan "drop@count=2,dir=to_client" in
  Alcotest.(check string) "canonical" (Plan.to_string p) (Plan.to_string (plan (Plan.to_string p)))

let test_plan_rejects_garbage () =
  List.iter
    (fun s ->
      match Plan.of_string s with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "plan %S should be rejected" s)
    [ "explode@t=3"; "crash"; "crash@t=x"; "drop@dir=sideways"; "checkpoint@every=0"; "drop@bogus=1" ]

let test_plan_random_deterministic () =
  for seed = 0 to 49 do
    let p = Plan.random ~seed in
    let q = Plan.random ~seed in
    if p <> q then Alcotest.failf "Plan.random seed %d not deterministic" seed;
    let p' = plan (Plan.to_string p) in
    if p <> p' then
      Alcotest.failf "random plan (seed %d) %S does not roundtrip" seed (Plan.to_string p)
  done;
  let distinct =
    List.sort_uniq compare (List.init 50 (fun seed -> Plan.to_string (Plan.random ~seed)))
  in
  Alcotest.(check bool) "seeds explore the space" true (List.length distinct > 25)

(* --- Injector semantics --- *)

let test_injector_scpu_one_shot () =
  let inj = Injector.create (plan "corrupt@t=3") in
  Alcotest.(check bool) "before" true (Injector.on_transfer inj ~transfer:2 = None);
  Alcotest.(check bool) "fires" true (Injector.on_transfer inj ~transfer:3 = Some Injector.Corrupt);
  Alcotest.(check bool) "one-shot" true (Injector.on_transfer inj ~transfer:3 = None);
  Alcotest.(check int) "counted" 1 (counter (Injector.registry inj) "fault.scpu.corrupt")

let test_injector_net_window () =
  let inj = Injector.create (plan "drop@dir=to_client,tag=execute-ok,skip=1,count=2") in
  let hit dir tag = Injector.on_frame inj ~dir ~tag in
  Alcotest.(check bool) "wrong dir" true (hit Plan.To_server "execute-ok" = None);
  Alcotest.(check bool) "wrong tag" true (hit Plan.To_client "execute" = None);
  Alcotest.(check bool) "skip window" true (hit Plan.To_client "execute-ok" = None);
  Alcotest.(check bool) "fires 1" true (hit Plan.To_client "execute-ok" = Some Injector.Drop);
  Alcotest.(check bool) "fires 2" true (hit Plan.To_client "execute-ok" = Some Injector.Drop);
  Alcotest.(check bool) "exhausted" true (hit Plan.To_client "execute-ok" = None);
  Alcotest.(check int) "counted" 2 (counter (Injector.registry inj) "fault.net.drop");
  Alcotest.(check int) "total" 2 (Injector.injected inj)

let test_injector_recv_timeout () =
  let inj = Injector.create (plan "timeout@recv=2") in
  let calls = List.init 4 (fun _ -> Injector.on_recv inj) in
  Alcotest.(check (list bool)) "only call 2" [ false; false; true; false ] calls;
  Alcotest.(check int) "counted" 1 (counter (Injector.registry inj) "fault.recv.timeout")

(* --- Tamper detection paths --- *)

let scratch_co ?faults ?checkpoint_every ?nvram ?(m = 8) ?(seed = 5) ~slots () =
  let host = Host.create () in
  let co = Co.create ?faults ?checkpoint_every ?nvram ~host ~m ~seed () in
  let (_ : Host.t) = Host.define_region host Trace.Scratch ~size:slots in
  (host, co)

let expect_tamper what f =
  match f () with
  | exception Co.Tamper_detected _ -> ()
  | _ -> Alcotest.failf "%s: expected Tamper_detected" what

let test_tamper_bit_flips () =
  (* A flip anywhere — nonce, ciphertext body, or trailing tag bytes —
     must be caught on the next read. *)
  List.iter
    (fun (what, pos_of) ->
      let host, co = scratch_co ~slots:2 () in
      Co.put co Trace.Scratch 0 "the quick brown tuple";
      let c = Host.raw_get host Trace.Scratch 0 in
      Host.tamper host Trace.Scratch 0 ~byte:(pos_of (String.length c));
      expect_tamper what (fun () -> Co.get co Trace.Scratch 0))
    [ ("nonce flip", fun _ -> 0); ("body flip", fun n -> n / 2); ("tag flip", fun n -> n - 1) ]

let test_tamper_truncation () =
  let host, co = scratch_co ~slots:2 () in
  Co.put co Trace.Scratch 0 "a tuple that will be cut short";
  let c = Host.raw_get host Trace.Scratch 0 in
  (* Shorter than nonce+tag: structurally invalid. *)
  Host.raw_set host Trace.Scratch 0 (String.sub c 0 10);
  expect_tamper "hard truncation" (fun () -> Co.get co Trace.Scratch 0);
  (* Structurally plausible but cut: authentication fails. *)
  Host.raw_set host Trace.Scratch 0 (String.sub c 0 (String.length c - 3));
  expect_tamper "soft truncation" (fun () -> Co.get co Trace.Scratch 0)

let test_tamper_stale_replay () =
  (* An authentic-but-superseded ciphertext served at its own slot: OCB
     alone accepts it; the epoch check must not. *)
  let host, co = scratch_co ~slots:2 () in
  Co.put co Trace.Scratch 0 "version one";
  let stale = Option.get (Host.peek host Trace.Scratch 0) in
  Co.put co Trace.Scratch 0 "version two";
  Host.raw_set host Trace.Scratch 0 stale;
  match Co.get co Trace.Scratch 0 with
  | exception Co.Tamper_detected msg ->
      Alcotest.(check bool) "names staleness" true (contains msg "stale")
  | _ -> Alcotest.fail "stale replay accepted"

let test_tamper_relocation () =
  let host, co = scratch_co ~slots:2 () in
  Co.put co Trace.Scratch 0 "left";
  Co.put co Trace.Scratch 1 "right";
  let c0 = Host.raw_get host Trace.Scratch 0 in
  let c1 = Host.raw_get host Trace.Scratch 1 in
  Host.raw_set host Trace.Scratch 0 c1;
  Host.raw_set host Trace.Scratch 1 c0;
  expect_tamper "relocated ciphertext" (fun () -> Co.get co Trace.Scratch 0)

let test_injected_corrupt_detected () =
  let inj = Injector.create (plan "corrupt@t=2") in
  let _host, co = scratch_co ~faults:inj ~slots:4 () in
  Co.put co Trace.Scratch 0 "aaaa";
  Co.put co Trace.Scratch 1 "bbbb";
  (* transfer 2 is the read of slot 0: the injector flips a bit first. *)
  expect_tamper "injected corrupt" (fun () -> Co.get co Trace.Scratch 0);
  Alcotest.(check int) "fired" 1 (counter (Injector.registry inj) "fault.scpu.corrupt")

let test_injected_replay_detected () =
  let inj = Injector.create (plan "replay@t=3") in
  let _host, co = scratch_co ~faults:inj ~slots:4 () in
  Co.put co Trace.Scratch 0 "first value";
  Co.put co Trace.Scratch 0 "second value";
  Alcotest.(check string) "clean read" "second value" (Co.get co Trace.Scratch 0);
  (* transfer 3 reads slot 0 again; the injector serves the stashed
     first-version ciphertext. *)
  expect_tamper "injected replay" (fun () -> Co.get co Trace.Scratch 0);
  Alcotest.(check int) "fired" 1 (counter (Injector.registry inj) "fault.scpu.replay")

(* Exact messages: the server forwards them over the wire.  The epoch
   edge cases use a twin coprocessor (same seed, so the same key) to
   mint authentic ciphertexts for slots this one never wrote. *)
let test_tamper_messages () =
  let expect what msg f =
    match f () with
    | exception Co.Tamper_detected m -> Alcotest.(check string) what msg m
    | _ -> Alcotest.failf "%s: expected Tamper_detected" what
  in
  let host, co = scratch_co ~slots:8 () in
  let twin_host, twin = scratch_co ~slots:8 () in
  let (_ : Host.t) = Host.define_region twin_host Trace.Output ~size:1 in
  List.iter (fun i -> Co.put twin Trace.Scratch i "twin") [ 0; 5 ];
  Co.put twin Trace.Output 0 "twin";
  let minted region i = Host.raw_get twin_host region i in
  let get i () = Co.get co Trace.Scratch i in
  Co.put co Trace.Scratch 1 "own";
  let own = Host.raw_get host Trace.Scratch 1 in
  Host.raw_set host Trace.Scratch 1 (String.sub own 0 10);
  expect "truncated" "R scratch[1]: truncated ciphertext" (get 1);
  Host.raw_set host Trace.Scratch 1 own;
  Host.tamper host Trace.Scratch 1 ~byte:20;
  expect "bit flip" "R scratch[1]" (get 1);
  Host.raw_set host Trace.Scratch 0 (minted Trace.Scratch 0);
  expect "never-written slot" "R scratch[0]: stale or relocated ciphertext" (get 0);
  Host.raw_set host Trace.Scratch 5 (minted Trace.Scratch 5);
  expect "index past the written ones" "R scratch[5]: stale or relocated ciphertext" (get 5);
  let (_ : Host.t) = Host.define_region host Trace.Output ~size:1 in
  Host.raw_set host Trace.Output 0 (minted Trace.Output 0);
  expect "never-written region" "R out[0]: stale or relocated ciphertext" (fun () ->
      Co.get co Trace.Output 0);
  (* Redefining a region keeps its epochs: a ciphertext from before the
     redefinition stays stale once the slot is written again. *)
  let (_ : Host.t) = Host.define_region host Trace.Scratch ~size:16 in
  Co.put co Trace.Scratch 9 "grows the epochs";
  Co.put co Trace.Scratch 1 "rewritten";
  Host.raw_set host Trace.Scratch 1 own;
  expect "stale after redefinition" "R scratch[1]: stale or relocated ciphertext" (get 1);
  let flipped = Bytes.of_string own in
  Bytes.set flipped 20 (Char.chr (Char.code (Bytes.get flipped 20) lxor 1));
  expect "recipient" "recipient" (fun () ->
      Co.decrypt_for_recipient co (Bytes.to_string flipped))

(* --- Checkpoint / resume, coprocessor level --- *)

let value i = Printf.sprintf "slot-value-%04d" i

(* The deterministic computation both timelines run: 8 puts then 4 gets. *)
let drive co upto =
  let host = Co.host co in
  let (_ : Host.t) = Host.define_region host Trace.Scratch ~size:8 in
  for i = 0 to upto - 1 do
    Co.put co Trace.Scratch (i mod 8) (value i)
  done

let test_checkpoint_resume_direct () =
  let nvram = ref 0 in
  let host = Host.create () in
  let co = Co.create ~checkpoint_every:4 ~nvram ~host ~m:8 ~seed:5 () in
  let (_ : Host.t) = Host.define_region host Trace.Scratch ~size:8 in
  for i = 0 to 5 do
    Co.put co Trace.Scratch (i mod 8) (value i)
  done;
  Alcotest.(check bool) "checkpoint sealed" true (Host.has_checkpoint host);
  (* Coprocessor dies here; its volatile state is abandoned. *)
  let co2 = Co.resume ~checkpoint_every:4 ~nvram ~host ~m:8 ~seed:5 () in
  Alcotest.(check bool) "ghost replaying" true (Co.resuming co2);
  (* The rerun replays the same deterministic computation from scratch. *)
  drive co2 6;
  Alcotest.(check bool) "live again" false (Co.resuming co2);
  for i = 6 to 7 do
    Co.put co2 Trace.Scratch i (value i)
  done;
  for i = 0 to 7 do
    Alcotest.(check string) (Printf.sprintf "slot %d" i) (value i) (Co.get co2 Trace.Scratch i)
  done;
  (* Ghost ops left no trace: the post-crash view starts at the
     checkpointed transfer. *)
  let reg = Registry.create () in
  Co.observe co2 reg;
  Alcotest.(check int) "resume counted" 1 (counter reg "recovery.resumes");
  Alcotest.(check bool) "ghost ops surfaced" true (counter reg "recovery.ghost_ops" > 0)

let test_resume_without_checkpoint_rejected () =
  let host = Host.create () in
  match Co.resume ~nvram:(ref 0) ~host ~m:8 ~seed:5 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "resume without a checkpoint should be rejected"

let test_checkpoint_rollback_rejected () =
  let nvram = ref 0 in
  let host = Host.create () in
  let co = Co.create ~checkpoint_every:4 ~nvram ~host ~m:8 ~seed:5 () in
  let (_ : Host.t) = Host.define_region host Trace.Scratch ~size:8 in
  for i = 0 to 4 do
    Co.put co Trace.Scratch (i mod 8) (value i)
  done;
  (* v2 checkpoint (ops=4) is now sealed; keep a copy of its blob. *)
  let stale = Option.get (Host.peek host Trace.Checkpoint 0) in
  for i = 5 to 8 do
    Co.put co Trace.Scratch (i mod 8) (value i)
  done;
  (* v3 is sealed (ops=8).  A malicious host rolls the sealed blob back
     to v2 inside its recovery image. *)
  Host.raw_set host Trace.Checkpoint 0 stale;
  Host.save_checkpoint host;
  expect_tamper "version rollback" (fun () ->
      Co.resume ~checkpoint_every:4 ~nvram ~host ~m:8 ~seed:5 ())

(* --- Crash / resume through the service --- *)

let pred = P.equijoin2 "key" "key"

let variant ~data_seed ?(na = 8) ?(nb = 12) ?(matches = 9) ?(mult = 3) () =
  let rng = Rng.create data_seed in
  W.equijoin_pair rng ~na ~nb ~matches ~max_multiplicity:mult

let oracle_of ~data_seed =
  let a, b = variant ~data_seed () in
  Instance.oracle (Instance.create ~m:4 ~seed:77 ~predicate:pred [ a; b ])

let crash_config = { Service.m = 4; seed = 77; algorithm = Service.Alg5 }

(* One digest over every byte fixed-seed Algorithm 4 slices hand the
   host: each checkpoint image (in the durable encoding a state
   directory holds, with its version) and the final image of every slot
   and the disk stream.  The pinned value is what earlier builds
   wrote: if it moves, sealed slots or checkpoint blobs changed, and a
   state directory written by an earlier build no longer resumes. *)
let test_sealed_bytes_pinned () =
  let a, b = variant ~data_seed:3 () in
  let s = Instance.oracle_size (Instance.create ~m:4 ~seed:77 ~predicate:pred [ a; b ]) in
  let digest = ref (Digest.string "") in
  let images = ref 0 in
  let add bytes = digest := Digest.string (!digest ^ Digest.string bytes) in
  let p = 2 in
  for k = 0 to p - 1 do
    let on_checkpoint ~version ~image =
      incr images;
      add (string_of_int version);
      add (Ppj_net.Persist.checkpoint_to_string image)
    in
    let inst =
      Instance.create ~checkpoint_every:5 ~on_checkpoint ~m:4 ~seed:(77 + k) ~predicate:pred
        [ a; b ]
    in
    ignore (Algorithm4.run_slice inst ~budget:(Public { s }) ~k ~p () : int);
    let host = Co.host (Instance.co inst) in
    Host.save_checkpoint host;
    add (Ppj_net.Persist.checkpoint_to_string (Option.get (Host.export_checkpoint host)))
  done;
  Alcotest.(check int) "checkpoint images" 1234 !images;
  Alcotest.(check string) "sealed bytes" "cfb5a25efeed241719dbc891fa0ad679" (Digest.to_hex !digest)

let run_with_plan ~data_seed plan_str =
  let faults = Injector.create (plan plan_str) in
  let a, b = variant ~data_seed () in
  Service.execute_join ~faults ~max_resumes:4 crash_config ~predicate:pred [ a; b ]

let test_service_crash_resume () =
  let inst, report = run_with_plan ~data_seed:3 "crash@t=150;checkpoint@every=32" in
  Alcotest.(check int) "one resume" 1 (Instance.resumes inst);
  Alcotest.(check bool) "resumed from a sealed checkpoint" true
    (Host.has_checkpoint (Co.host (Instance.co inst)));
  Alcotest.(check bool) "answer = fault-free oracle" true
    (tuple_set report.Report.results = tuple_set (oracle_of ~data_seed:3));
  (* The banked pre-crash trace is part of the adversary's view. *)
  let clean = run_with_plan ~data_seed:3 "checkpoint@every=32" in
  let clean_len = Trace.length (Instance.extended_trace (fst clean)) in
  Alcotest.(check bool) "extended view longer than fault-free" true
    (Trace.length (Instance.extended_trace inst) > clean_len)

let test_service_crash_before_any_checkpoint () =
  (* Crash with no checkpoint interval armed: recovery is a rerun from
     scratch, still converging on the oracle answer. *)
  let inst, report = run_with_plan ~data_seed:3 "crash@t=9" in
  Alcotest.(check int) "one resume" 1 (Instance.resumes inst);
  Alcotest.(check bool) "no checkpoint existed" false
    (Host.has_checkpoint (Co.host (Instance.co inst)));
  Alcotest.(check bool) "answer = fault-free oracle" true
    (tuple_set report.Report.results = tuple_set (oracle_of ~data_seed:3))

let test_service_double_crash () =
  let inst, report =
    run_with_plan ~data_seed:3 "crash@t=60;crash@t=200;checkpoint@every=25"
  in
  Alcotest.(check int) "two resumes" 2 (Instance.resumes inst);
  Alcotest.(check bool) "answer = fault-free oracle" true
    (tuple_set report.Report.results = tuple_set (oracle_of ~data_seed:3))

(* Padding is counted per execution: two identical runs in one process
   report the same pad slots, and so does a crash-resumed run, whose
   replay reruns every sort on the new coprocessor. *)
let test_pad_slots_once_per_execution () =
  let a, b = variant ~data_seed:3 () in
  List.iter
    (fun algorithm ->
      let config = { crash_config with Service.algorithm } in
      let pads ?crash () =
        let faults = Option.map (fun c -> Injector.create (plan c)) crash in
        let inst, report =
          Service.execute_join ?faults ~max_resumes:1 config ~predicate:pred [ a; b ]
        in
        (Instance.resumes inst, report.Report.pad_slots)
      in
      let name = Service.algorithm_name algorithm in
      let resumes, clean = pads () in
      Alcotest.(check int) (name ^ ": clean run") 0 resumes;
      Alcotest.(check bool) (name ^ ": pads") true (clean > 0);
      Alcotest.(check (pair int int)) (name ^ ": second run") (0, clean) (pads ());
      List.iter
        (fun crash ->
          Alcotest.(check (pair int int)) (name ^ ": " ^ crash) (1, clean) (pads ~crash ()))
        [ "crash@t=150;checkpoint@every=32"; "crash@t=9" ])
    [ Service.Alg4;
      Service.Alg8 { attr_a = "key"; attr_b = "key" };
      Service.Sharded { k = 0; p = 2; inner = Service.Alg4 }
    ]

let test_crash_exhausts_resume_budget () =
  let faults = Injector.create (plan "crash@t=9") in
  let a, b = variant ~data_seed:3 () in
  match Service.execute_join ~faults ~max_resumes:0 crash_config ~predicate:pred [ a; b ] with
  | exception Service.Join_crashed { transfer; _ } ->
      Alcotest.(check int) "crash point" 9 transfer
  | _ -> Alcotest.fail "expected Join_crashed"

let test_resume_join_completes_stashed_instance () =
  let faults = Injector.create (plan "crash@t=150;checkpoint@every=32") in
  let a, b = variant ~data_seed:3 () in
  match Service.execute_join ~faults crash_config ~predicate:pred [ a; b ] with
  | exception Service.Join_crashed { inst; _ } ->
      let _inst, report = Service.resume_join crash_config inst in
      Alcotest.(check bool) "answer = fault-free oracle" true
        (tuple_set report.Report.results = tuple_set (oracle_of ~data_seed:3))
  | _ -> Alcotest.fail "expected Join_crashed"

(* --- Privacy across crash-resume runs --- *)

let extended_trace_of ~data_seed plan =
  let inst, _report = run_with_plan ~data_seed plan in
  Instance.extended_trace inst

let test_extended_trace_privacy () =
  (* Definition 1/3 over the extended trace: same shape, same coprocessor
     seed, same fault plan, different data — the adversary's whole view
     (pre-crash prefix included) must be identical. *)
  let plan = "crash@t=150;checkpoint@every=32" in
  let traces = List.map (fun s -> [ extended_trace_of ~data_seed:s plan ]) [ 1; 2; 3; 4 ] in
  match Privacy.compare_extended traces with
  | Privacy.Indistinguishable -> ()
  | v -> Alcotest.failf "crash-resume runs distinguishable: %a" Privacy.pp_verdict v

let test_abort_prefix_input_independent () =
  (* When T detects tampering and aborts, the trace prefix the adversary
     forced out of it must not depend on the data either. *)
  let abort_trace ~data_seed =
    let faults = Injector.create (plan "corrupt@t=100") in
    let a, b = variant ~data_seed () in
    let inst = Instance.create ~faults ~m:4 ~seed:77 ~predicate:pred [ a; b ] in
    (match Algorithm5.run inst with
    | (_ : Report.t) -> Alcotest.fail "corruption went undetected"
    | exception Co.Tamper_detected _ -> ());
    Co.trace (Instance.co inst)
  in
  match Privacy.compare_traces (List.map (fun s -> abort_trace ~data_seed:s) [ 1; 2; 3; 4 ]) with
  | Privacy.Indistinguishable -> ()
  | v -> Alcotest.failf "abort prefixes distinguishable: %a" Privacy.pp_verdict v

let () =
  Alcotest.run "fault"
    [ ( "plan",
        [ Alcotest.test_case "roundtrip" `Quick test_plan_roundtrip;
          Alcotest.test_case "rejects garbage" `Quick test_plan_rejects_garbage;
          Alcotest.test_case "random is seed-deterministic" `Quick test_plan_random_deterministic;
        ] );
      ( "injector",
        [ Alcotest.test_case "scpu events are one-shot" `Quick test_injector_scpu_one_shot;
          Alcotest.test_case "net skip/count windows" `Quick test_injector_net_window;
          Alcotest.test_case "recv timeout by call index" `Quick test_injector_recv_timeout;
        ] );
      ( "tamper",
        [ Alcotest.test_case "bit flips (nonce/body/tag)" `Quick test_tamper_bit_flips;
          Alcotest.test_case "truncation" `Quick test_tamper_truncation;
          Alcotest.test_case "stale same-slot replay" `Quick test_tamper_stale_replay;
          Alcotest.test_case "cross-slot relocation" `Quick test_tamper_relocation;
          Alcotest.test_case "injected corrupt" `Quick test_injected_corrupt_detected;
          Alcotest.test_case "injected replay" `Quick test_injected_replay_detected;
          Alcotest.test_case "exact messages and epoch edges" `Quick test_tamper_messages;
          Alcotest.test_case "sealed bytes pinned" `Quick test_sealed_bytes_pinned;
        ] );
      ( "checkpoint",
        [ Alcotest.test_case "resume rejoins the timeline" `Quick test_checkpoint_resume_direct;
          Alcotest.test_case "resume demands a checkpoint" `Quick
            test_resume_without_checkpoint_rejected;
          Alcotest.test_case "version rollback rejected" `Quick test_checkpoint_rollback_rejected;
        ] );
      ( "service-recovery",
        [ Alcotest.test_case "crash resumes to the oracle answer" `Quick
            test_service_crash_resume;
          Alcotest.test_case "crash before any checkpoint" `Quick
            test_service_crash_before_any_checkpoint;
          Alcotest.test_case "two crashes, two resumes" `Quick test_service_double_crash;
          Alcotest.test_case "resume budget exhaustion" `Quick test_crash_exhausts_resume_budget;
          Alcotest.test_case "pad slots once per execution" `Quick
            test_pad_slots_once_per_execution;
          Alcotest.test_case "resume_join completes a stash" `Quick
            test_resume_join_completes_stashed_instance;
        ] );
      ( "privacy",
        [ Alcotest.test_case "extended traces indistinguishable" `Quick
          test_extended_trace_privacy;
          Alcotest.test_case "abort prefix input-independent" `Quick
            test_abort_prefix_input_independent;
        ] );
    ]
