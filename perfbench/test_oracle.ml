(* Negative control for the benchmark's correctness gate: a genuine
   delivery passes, and corrupted ones — a changed value, a dropped
   tuple, a duplicated tuple, a tuple of another join — are caught and
   counted as failed. *)

open Perfbench
module Service = Ppj_core.Service
module Channel = Ppj_scpu.Channel
module Tuple = Ppj_relation.Tuple
module Schema = Ppj_relation.Schema
module Relation = Ppj_relation.Relation

(* A real delivery of the serve-mix fixture through the in-process
   service, and the oracle's answer for the same inputs. *)
let delivery () =
  let a, b = Inputs.fixture ~seed:1 0 in
  let contract = Inputs.contract "test" in
  let party id c = Channel.party ~id ~secret:(String.make 16 c) in
  let pa = party (List.nth contract.Channel.providers 0) 'a' in
  let pb = party (List.nth contract.Channel.providers 1) 'b' in
  let pc = party contract.Channel.recipient 'c' in
  match
    Service.run
      { Service.m = 4; seed = 7; algorithm = Service.Alg5 }
      ~contract
      ~submissions:
        [ (pa, Inputs.schema, Channel.submit pa contract a);
          (pb, Inputs.schema, Channel.submit pb contract b) ]
      ~recipient:pc ~predicate:Oracle.predicate
  with
  | Ok o -> (a, b, o.Service.delivered)
  | Error e -> Alcotest.fail e

let verdict ~expected delivered =
  let t = Oracle.tally () in
  let v =
    Oracle.run t (fun () ->
        if Oracle.matches ~expected delivered then Oracle.Correct else Oracle.Wrong)
  in
  (v, Oracle.failed t)

let test_genuine_passes () =
  let a, b, got = delivery () in
  Alcotest.(check bool) "non-empty" true (got <> []);
  let v, failed = verdict ~expected:(Oracle.expected a b) got in
  Alcotest.(check string) "verdict" "correct" (Oracle.verdict_name v);
  Alcotest.(check int) "failed" 0 failed

let test_corrupted_caught () =
  let a, b, got = delivery () in
  let expected = Oracle.expected a b in
  let schema = Schema.concat a.Relation.schema b.Relation.schema in
  let flip t =
    let s = Bytes.of_string (Tuple.encode t) in
    let i = Bytes.length s - 1 in
    Bytes.set s i (Char.chr (Char.code (Bytes.get s i) lxor 1));
    Tuple.decode schema (Bytes.to_string s)
  in
  let other =
    let a', b' = Inputs.fixture ~seed:2 0 in
    Ppj_relation.Join.nested_loop Oracle.predicate a' b'
  in
  List.iter
    (fun (name, bad) ->
      let v, failed = verdict ~expected bad in
      Alcotest.(check string) name "wrong" (Oracle.verdict_name v);
      Alcotest.(check int) (name ^ " counted") 1 failed)
    [ ("changed value", flip (List.hd got) :: List.tl got);
      ("dropped tuple", List.tl got);
      ("duplicated tuple", List.hd got :: got);
      ("another join's tuple", List.hd other :: List.tl got) ]

let test_failures_counted () =
  let t = Oracle.tally () in
  List.iter
    (fun f -> ignore (Oracle.run t f))
    [ (fun () -> Oracle.Correct);
      (fun () -> Oracle.of_error "execute: no reply after 4 attempt(s)");
      (fun () -> Oracle.of_error "upload: server error [unavailable]: shed");
      (fun () -> failwith "boom") ];
  Alcotest.(check (list int)) "attempted, hung, refused, raised, failed" [ 4; 1; 1; 1; 3 ]
    [ t.Oracle.attempted; t.Oracle.hung; t.Oracle.refused; t.Oracle.raised; Oracle.failed t ]

(* A run whose every session is refused times nothing, sees no transfer
   count and must fail, as must a run with no ops or no transfer count. *)
let test_nothing_delivered_fails () =
  let refused = Oracle.tally () and tr = Oracle.transfers () in
  for _ = 1 to 3 do
    ignore
      (Oracle.run refused (fun () -> Oracle.of_error "upload: server error [unavailable]: shed"))
  done;
  Alcotest.(check bool) "all refused" false (Oracle.passed refused tr);
  Alcotest.(check bool) "no ops" false (Oracle.passed (Oracle.tally ()) tr);
  let delivered = Oracle.tally () in
  ignore (Oracle.run delivered (fun () -> Oracle.Correct));
  Alcotest.(check bool) "no transfer count" false (Oracle.passed delivered tr);
  Oracle.note_transfers tr 297;
  Alcotest.(check bool) "genuine run" true (Oracle.passed delivered tr);
  ignore (Oracle.run delivered (fun () -> Oracle.of_error "fetch: no reply after 4 attempt(s)"));
  Alcotest.(check bool) "one hang" false (Oracle.passed delivered tr)

let test_transfer_drift_caught () =
  let tr = Oracle.transfers () in
  Oracle.note_transfers tr 297;
  Oracle.note_transfers tr 297;
  Alcotest.(check bool) "steady" false tr.Oracle.varied;
  Oracle.note_transfers tr 298;
  Alcotest.(check bool) "varied" true tr.Oracle.varied;
  let t = Oracle.tally () in
  ignore (Oracle.run t (fun () -> Oracle.Correct));
  Alcotest.(check bool) "run fails" false (Oracle.passed t tr)

let () =
  Alcotest.run "perfbench"
    [ ( "oracle",
        [ Alcotest.test_case "genuine delivery passes" `Quick test_genuine_passes;
          Alcotest.test_case "corrupted delivery caught" `Quick test_corrupted_caught;
          Alcotest.test_case "failures counted" `Quick test_failures_counted;
          Alcotest.test_case "run delivering nothing fails" `Quick test_nothing_delivered_fails;
          Alcotest.test_case "transfer drift caught" `Quick test_transfer_drift_caught ] ) ]
