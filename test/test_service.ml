(* End-to-end service: contracts, attestation, submissions, every
   algorithm through the full party-to-recipient path. *)

open Ppj_core
module Ch = Ppj_scpu.Channel
module W = Ppj_relation.Workload
module P = Ppj_relation.Predicate
module T = Ppj_relation.Tuple
module Rng = Ppj_crypto.Rng

let tuple_set l = List.sort compare (List.map (fun t -> Format.asprintf "%a" T.pp t) l)

let pred = P.equijoin2 "key" "key"
let schema = W.keyed_schema ()

let parties () =
  ( Ch.party ~id:"airline" ~secret:(String.make 16 'a'),
    Ch.party ~id:"agency" ~secret:(String.make 16 'b'),
    Ch.party ~id:"analyst" ~secret:(String.make 16 'c') )

let contract =
  { Ch.contract_id = "contract-001";
    providers = [ "airline"; "agency" ];
    recipient = "analyst";
    predicate = "eq(key,key)";
  }

let workload () =
  let rng = Rng.create 11 in
  W.equijoin_pair rng ~na:12 ~nb:18 ~matches:14 ~max_multiplicity:3

let oracle () =
  let a, b = workload () in
  Instance.oracle (Instance.create ~m:4 ~seed:1 ~predicate:pred [ a; b ])

let run_with algorithm =
  let pa, pb, pc = parties () in
  let a, b = workload () in
  Service.run
    { Service.m = 4; seed = 9; algorithm }
    ~contract
    ~submissions:[ (pa, schema, Ch.submit pa contract a); (pb, schema, Ch.submit pb contract b) ]
    ~recipient:pc ~predicate:pred

let check_delivers algorithm () =
  match run_with algorithm with
  | Ok o ->
      Alcotest.(check bool) "delivered = oracle" true
        (tuple_set o.Service.delivered = tuple_set (oracle ()))
  | Error e -> Alcotest.fail e

let test_alg1 = check_delivers (Service.Alg1 { n = 3 })
let test_alg2 = check_delivers (Service.Alg2 { n = 3 })
let test_alg3 = check_delivers (Service.Alg3 { n = 3; attr_a = "key"; attr_b = "key" })
let test_alg4 = check_delivers Service.Alg4
let test_alg5 = check_delivers Service.Alg5
let test_alg6 = check_delivers (Service.Alg6 { eps = 1e-12 })
let test_alg7 = check_delivers (Service.Alg7 { attr_a = "key"; attr_b = "key" })
let test_auto = check_delivers (Service.Auto { max_eps = 1e-12 })
let test_auto_exact = check_delivers (Service.Auto { max_eps = 0. })

let test_contract_mismatch_rejected () =
  let pa, pb, pc = parties () in
  let a, b = workload () in
  let other = { contract with Ch.contract_id = "contract-002" } in
  match
    Service.run
      { Service.m = 4; seed = 9; algorithm = Service.Alg4 }
      ~contract:other
      ~submissions:
        [ (pa, schema, Ch.submit pa contract a); (pb, schema, Ch.submit pb contract b) ]
      ~recipient:pc ~predicate:pred
  with
  | Ok _ -> Alcotest.fail "mismatched contract accepted"
  | Error e -> Alcotest.(check string) "reason" "contract mismatch" e

let test_tampered_submission_rejected () =
  let pa, pb, pc = parties () in
  let a, b = workload () in
  (* Impersonation: pb's relation submitted under pa's identity fails to
     authenticate. *)
  match
    Service.run
      { Service.m = 4; seed = 9; algorithm = Service.Alg4 }
      ~contract
      ~submissions:
        [ (pa, schema, Ch.submit pb contract b); (pa, schema, Ch.submit pa contract a) ]
      ~recipient:pc ~predicate:pred
  with
  | Ok _ -> Alcotest.fail "forged submission accepted"
  | Error _ -> ()

let test_recipient_distinct_from_providers () =
  (* P_C is neither P_A nor P_B and still decodes everything (§3.2). *)
  match run_with Service.Alg5 with
  | Ok o ->
      Alcotest.(check int) "all results delivered" (List.length (oracle ()))
        (List.length o.Service.delivered)
  | Error e -> Alcotest.fail e

let test_report_surfaces_cost () =
  match run_with (Service.Alg1 { n = 3 }) with
  | Ok o ->
      Alcotest.(check bool) "transfers counted" true (o.Service.report.Report.transfers > 0);
      Alcotest.(check bool) "disk counted" true (o.Service.report.Report.disk_tuples > 0)
  | Error e -> Alcotest.fail e

let test_three_provider_join () =
  (* Definition 3 is m-way; the service accepts any number of providers. *)
  let rng = Rng.create 77 in
  let a = W.uniform rng ~name:"airline" ~n:4 ~key_domain:3 in
  let b = W.uniform rng ~name:"agency" ~n:5 ~key_domain:3 in
  let c = W.uniform rng ~name:"registry" ~n:3 ~key_domain:3 in
  let pred3 = P.equijoin "key" in
  let pa, pb, pc = parties () in
  let pr = Ch.party ~id:"registry" ~secret:(String.make 16 'r') in
  let contract3 =
    { Ch.contract_id = "contract-3way";
      providers = [ "airline"; "agency"; "registry" ];
      recipient = "analyst";
      predicate = "eq(key)";
    }
  in
  match
    Service.run
      { Service.m = 4; seed = 9; algorithm = Service.Alg4 }
      ~contract:contract3
      ~submissions:
        [ (pa, schema, Ch.submit pa contract3 a);
          (pb, schema, Ch.submit pb contract3 b);
          (pr, schema, Ch.submit pr contract3 c)
        ]
      ~recipient:pc ~predicate:pred3
  with
  | Ok o ->
      let oracle3 =
        Instance.oracle (Instance.create ~m:4 ~seed:1 ~predicate:pred3 [ a; b; c ])
      in
      Alcotest.(check bool) "3-way delivered" true
        (tuple_set o.Service.delivered = tuple_set oracle3)
  | Error e -> Alcotest.fail e

let test_attested_layers_shape () =
  Alcotest.(check int) "three layers" 3 (List.length Service.attested_layers);
  match Service.attested_layers with
  | { Ppj_scpu.Attestation.name = "miniboot"; _ } :: _ -> ()
  | _ -> Alcotest.fail "miniboot must be the root"

(* Every ciphertext the host holds after a join and every entry of its
   trace, digested for an Algorithm 4 slice (0 of 2), Algorithm 5 and
   Algorithm 8 at the shard benchmark's shape (16 x 24 tuples, S = 8,
   m = 4, seed 7).  The digest was computed with every OCB message sealed
   and opened block by block in OCaml: a changed sealed byte, nonce,
   tamper header or trace entry fails it. *)
let test_host_image_pinned () =
  let module Co = Ppj_scpu.Coprocessor in
  let module Host = Ppj_scpu.Host in
  let module Trace = Ppj_scpu.Trace in
  let a, b = W.equijoin_pair (Rng.create 2008) ~na:16 ~nb:24 ~matches:8 ~max_multiplicity:2 in
  let all = Buffer.create (1 lsl 20) in
  List.iter
    (fun algorithm ->
      let inst, _ =
        Service.execute_join { Service.m = 4; seed = 7; algorithm } ~predicate:pred [ a; b ]
      in
      let host = Co.host (Instance.co inst) and trace = Co.trace (Instance.co inst) in
      List.iter
        (fun e -> Buffer.add_string all (Format.asprintf "%a;" Trace.pp_entry e))
        (Trace.to_list trace);
      List.iter
        (fun region ->
          Buffer.add_string all (Trace.region_name region);
          for i = 0 to Host.region_size host region - 1 do
            match Host.peek host region i with
            | Some c -> Buffer.add_string all c
            | None -> Buffer.add_char all '-'
          done)
        (Instance.relation_region inst 0 :: Instance.relation_region inst 1
        :: List.map fst (Trace.by_region trace));
      List.iter (Buffer.add_string all) (Host.disk host))
    [ Service.Sharded { k = 0; p = 2; inner = Service.Alg4 };
      Service.Alg5;
      Service.Alg8 { attr_a = "key"; attr_b = "key" }
    ];
  Alcotest.(check string) "digest of the host images and traces"
    "36a5b9fdf29f012410b5822f8ff20db9"
    (Digest.to_hex (Digest.string (Buffer.contents all)))

let () =
  Alcotest.run "service"
    [ ( "delivery",
        [ Alcotest.test_case "algorithm 1" `Quick test_alg1;
          Alcotest.test_case "algorithm 2" `Quick test_alg2;
          Alcotest.test_case "algorithm 3" `Quick test_alg3;
          Alcotest.test_case "algorithm 4" `Quick test_alg4;
          Alcotest.test_case "algorithm 5" `Quick test_alg5;
          Alcotest.test_case "algorithm 6" `Quick test_alg6;
          Alcotest.test_case "algorithm 7" `Quick test_alg7;
          Alcotest.test_case "auto (planner)" `Quick test_auto;
          Alcotest.test_case "auto exact-only" `Quick test_auto_exact
        ] );
      ( "security",
        [ Alcotest.test_case "contract mismatch" `Quick test_contract_mismatch_rejected;
          Alcotest.test_case "forged submission" `Quick test_tampered_submission_rejected;
          Alcotest.test_case "third-party recipient" `Quick test_recipient_distinct_from_providers;
          Alcotest.test_case "report costs" `Quick test_report_surfaces_cost;
          Alcotest.test_case "attestation layers" `Quick test_attested_layers_shape;
          Alcotest.test_case "three providers" `Quick test_three_provider_join;
          Alcotest.test_case "host images and traces pinned" `Quick test_host_image_pinned
        ] )
    ]
