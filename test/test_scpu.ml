(* Secure-coprocessor substrate: trace, host, coprocessor, attestation,
   channels. *)

module Trace = Ppj_scpu.Trace
module Host = Ppj_scpu.Host
module Co = Ppj_scpu.Coprocessor
module Attestation = Ppj_scpu.Attestation
module Channel = Ppj_scpu.Channel
module Rng = Ppj_crypto.Rng
module Workload = Ppj_relation.Workload
module Relation = Ppj_relation.Relation

let qtest name ?(count = 100) arb prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count arb prop)

let fresh ?(m = 8) ?(seed = 1) () =
  let host = Host.create () in
  (host, Co.create ~host ~m ~seed ())

(* --- Trace --- *)

let test_trace_record () =
  let t = Trace.create () in
  Trace.record t Trace.Read (Trace.Table "A") 3;
  Trace.record t Trace.Write Trace.Scratch 0;
  Alcotest.(check int) "length" 2 (Trace.length t);
  Alcotest.(check int) "reads" 1 (Trace.reads t);
  Alcotest.(check int) "writes" 1 (Trace.writes t);
  Alcotest.(check int) "region count" 1 (Trace.transfers_to_region t Trace.Scratch)

let test_trace_equal_and_divergence () =
  let mk ops =
    let t = Trace.create () in
    List.iter (fun (op, r, i) -> Trace.record t op r i) ops;
    t
  in
  let a = mk [ (Trace.Read, Trace.Cartesian, 0); (Trace.Write, Trace.Output, 1) ] in
  let b = mk [ (Trace.Read, Trace.Cartesian, 0); (Trace.Write, Trace.Output, 2) ] in
  let c = mk [ (Trace.Read, Trace.Cartesian, 0); (Trace.Write, Trace.Output, 1) ] in
  Alcotest.(check bool) "equal" true (Trace.equal a c);
  Alcotest.(check bool) "not equal" false (Trace.equal a b);
  (match Trace.first_divergence a b with
  | Some (1, _, _) -> ()
  | _ -> Alcotest.fail "divergence at 1 expected");
  (* Prefix traces diverge at the end. *)
  let d = mk [ (Trace.Read, Trace.Cartesian, 0) ] in
  match Trace.first_divergence a d with
  | Some (1, Some _, None) -> ()
  | _ -> Alcotest.fail "prefix divergence expected"

let test_trace_growth () =
  (* Force several internal buffer doublings. *)
  let t = Trace.create () in
  for i = 0 to 9999 do
    Trace.record t Trace.Read Trace.Cartesian i
  done;
  Alcotest.(check int) "10000 entries" 10000 (Trace.length t);
  Alcotest.(check int) "last index" 9999
    (match List.rev (Trace.to_list t) with e :: _ -> e.Trace.index | [] -> -1)

(* by_region against a plain fold, over traces built from runs of a few
   regions.  Table names are fresh strings, so regions that are equal
   are not always physically equal. *)
let test_by_region_matches_fold =
  let region = function
    | 0 -> Trace.Table (String.make 1 'A')
    | 1 -> Trace.Table (String.make 1 'B')
    | 2 -> Trace.Cartesian
    | 3 -> Trace.Output
    | 4 -> Trace.Scratch
    | _ -> Trace.Disk
  in
  let runs = QCheck.(list (triple bool (int_range 0 5) (int_range 1 20))) in
  qtest "by_region = plain fold" runs (fun runs ->
      let t = Trace.create () in
      List.iter
        (fun (read, r, len) ->
          for i = 0 to len - 1 do
            Trace.record t (if read then Trace.Read else Trace.Write) (region r) i
          done)
        runs;
      let fold =
        List.fold_left
          (fun acc (e : Trace.entry) ->
            let bump (r, w) = if e.Trace.op = Trace.Read then (r + 1, w) else (r, w + 1) in
            if List.mem_assoc e.Trace.region acc then
              List.map (fun (k, c) -> if k = e.Trace.region then (k, bump c) else (k, c)) acc
            else acc @ [ (e.Trace.region, bump (0, 0)) ])
          [] (Trace.to_list t)
      in
      Trace.by_region t = fold)

(* The packed trace against a plain list of entries.  Table regions are
   built fresh for every record, as Instance.relation_region builds
   them, so equal regions are rarely physically equal; indices reach
   2^31.  The second trace is the first one rebuilt, a fresh sequence,
   the first with one entry changed, or a prefix of it, so [equal] is
   exercised both ways. *)
let trace_model_region = function
  | 0 -> Trace.Table (String.make 1 'A')
  | 1 -> Trace.Table (String.make 1 'B')
  | 2 -> Trace.Cartesian
  | 3 -> Trace.Output
  | 4 -> Trace.Scratch
  | _ -> Trace.Disk

let test_trace_model =
  let open QCheck.Gen in
  let step = triple bool (int_range 0 5) (oneof [ int_range 0 40; int_range 0 (1 lsl 31) ]) in
  let steps = list_size (int_range 0 60) step in
  let variant a =
    let n = List.length a in
    oneof
      ([ return a; steps; map (fun k -> List.filteri (fun j _ -> j < k) a) (int_range 0 n) ]
      @
      if n = 0 then []
      else
        [ map2
            (fun i s -> List.mapi (fun j x -> if j = i then s else x) a)
            (int_range 0 (n - 1))
            step
        ])
  in
  let print =
    QCheck.Print.(pair (list (triple bool int int)) (list (triple bool int int)))
  in
  let arb = QCheck.make ~print (steps >>= fun a -> map (fun b -> (a, b)) (variant a)) in
  qtest "packed trace = plain list" ~count:300 arb (fun (a, b) ->
      let build steps =
        let t = Trace.create () in
        List.iter
          (fun (read, r, i) ->
            Trace.record t (if read then Trace.Read else Trace.Write) (trace_model_region r) i)
          steps;
        t
      in
      let model steps =
        List.map
          (fun (read, r, index) ->
            { Trace.op = (if read then Trace.Read else Trace.Write);
              region = trace_model_region r;
              index
            })
          steps
      in
      let t = build a and u = build b in
      let ma = model a and mb = model b in
      let count p l = List.length (List.filter p l) in
      let fold =
        List.fold_left
          (fun acc (e : Trace.entry) ->
            let bump (r, w) = if e.Trace.op = Trace.Read then (r + 1, w) else (r, w + 1) in
            if List.mem_assoc e.Trace.region acc then
              List.map (fun (k, c) -> if k = e.Trace.region then (k, bump c) else (k, c)) acc
            else acc @ [ (e.Trace.region, bump (0, 0)) ])
          [] ma
      in
      let rec divergence i xs ys =
        match (xs, ys) with
        | [], [] -> None
        | x :: xs', y :: ys' when x = y -> divergence (i + 1) xs' ys'
        | _ -> Some (i, List.nth_opt xs 0, List.nth_opt ys 0)
      in
      Trace.to_list t = ma
      && Trace.length t = List.length ma
      && Trace.reads t = count (fun e -> e.Trace.op = Trace.Read) ma
      && Trace.writes t = count (fun e -> e.Trace.op = Trace.Write) ma
      && Trace.by_region t = fold
      && List.for_all
           (fun r ->
             let region = trace_model_region r in
             Trace.transfers_to_region t region = count (fun e -> e.Trace.region = region) ma)
           [ 0; 1; 2; 3; 4; 5 ]
      && Trace.to_list (Trace.concat [ t; u ]) = ma @ mb
      && Trace.equal t u = (ma = mb)
      && Trace.first_divergence t u = divergence 0 ma mb)

let test_trace_interning_order () =
  (* Each trace numbers regions in its own first-appearance order, so
     these two pack to the same ints and must still differ. *)
  let mk regions =
    let t = Trace.create () in
    List.iter (fun r -> Trace.record t Trace.Read r 0) regions;
    t
  in
  let a = Trace.Table "A" and b = Trace.Table "B" in
  let ab = mk [ a; b ] and ba = mk [ b; a ] in
  Alcotest.(check bool) "unequal" false (Trace.equal ab ba);
  match Trace.first_divergence ab ba with
  | Some (0, Some e, Some e') ->
      Alcotest.(check bool) "A then B" true (e.Trace.region = a && e'.Trace.region = b)
  | _ -> Alcotest.fail "expected a divergence at 0"

(* --- Host --- *)

let test_host_regions () =
  let host = Host.create () in
  let host = Host.define_region host Trace.Scratch ~size:4 in
  Alcotest.(check int) "size" 4 (Host.region_size host Trace.Scratch);
  Host.raw_set host Trace.Scratch 2 "ciphertext";
  Alcotest.(check string) "get" "ciphertext" (Host.raw_get host Trace.Scratch 2)

let test_host_undefined_region () =
  let host = Host.create () in
  Alcotest.check_raises "undefined" (Invalid_argument "Host: undefined region") (fun () ->
      ignore (Host.raw_get host Trace.Buffer 0))

let test_host_empty_slot () =
  let host = Host.create () in
  let host = Host.define_region host Trace.Scratch ~size:2 in
  Alcotest.(check bool) "raises" true
    (try
       ignore (Host.raw_get host Trace.Scratch 0);
       false
     with Invalid_argument _ -> true)

let test_host_persist () =
  let host = Host.create () in
  let host = Host.define_region host Trace.Output ~size:3 in
  List.iteri (fun i c -> Host.raw_set host Trace.Output i c) [ "x"; "y"; "z" ];
  Host.persist host Trace.Output ~count:2;
  Alcotest.(check (list string)) "disk" [ "x"; "y" ] (Host.disk host);
  Alcotest.(check int) "count" 2 (Host.disk_writes host)

let test_host_replaced_regions () =
  (* Whatever replaces a region's array -- restore_checkpoint,
     define_region, reset -- is what raw_get reads next. *)
  let host = Host.define_region (Host.create ()) Trace.Scratch ~size:2 in
  Host.raw_set host Trace.Scratch 0 "old";
  Alcotest.(check string) "read" "old" (Host.raw_get host Trace.Scratch 0);
  Host.save_checkpoint host;
  Host.raw_set host Trace.Scratch 0 "new";
  Alcotest.(check string) "written" "new" (Host.raw_get host Trace.Scratch 0);
  Host.restore_checkpoint host;
  Alcotest.(check string) "after restore_checkpoint" "old" (Host.raw_get host Trace.Scratch 0);
  let (_ : Host.t) = Host.define_region host Trace.Scratch ~size:3 in
  Alcotest.(check (option string)) "after define_region" None (Host.peek host Trace.Scratch 0);
  Alcotest.(check int) "redefined size" 3 (Host.region_size host Trace.Scratch);
  Alcotest.check_raises "after define_region: slot empty"
    (Invalid_argument "Host: empty slot R scratch[0]") (fun () ->
      ignore (Host.raw_get host Trace.Scratch 0));
  Host.raw_set host Trace.Scratch 1 "x";
  Host.reset host;
  Alcotest.check_raises "after reset" (Invalid_argument "Host: undefined region") (fun () ->
      ignore (Host.raw_get host Trace.Scratch 1))

(* The host orders regions with a compare of its own; an exported
   checkpoint lists them as polymorphic compare orders them, and each
   region, looked up through a fresh value, reads its own slots. *)
let test_host_region_order =
  let all =
    [| Trace.Cartesian; Scratch; Joined; Buffer; Output; Oram_store; Oram_shelter; Disk;
       Checkpoint |]
  in
  let region = function
    | `C i -> all.(i)
    | `T name -> Trace.Table (name ^ "")
  in
  let gen =
    QCheck.Gen.(
      list_size (int_range 0 14)
        (oneof
           [ map (fun i -> `C i) (int_range 0 (Array.length all - 1));
             map (fun s -> `T s) (string_size ~gen:(char_range 'A' 'C') (int_range 0 3))
           ]))
  in
  let print =
    QCheck.Print.list (function `C i -> Trace.region_name all.(i) | `T s -> "table:" ^ s)
  in
  qtest "checkpoint regions in compare order" (QCheck.make ~print gen) (fun regions ->
      let host = Host.create () in
      List.iter (fun r -> ignore (Host.define_region host (region r) ~size:1)) regions;
      List.iter (fun r -> Host.raw_set host (region r) 0 (Trace.region_name (region r))) regions;
      Host.save_checkpoint host;
      let exported =
        match Host.export_checkpoint host with
        | Some e -> List.map fst e.Host.e_regions
        | None -> []
      in
      exported = List.sort_uniq Stdlib.compare (List.map region regions)
      && List.for_all
           (fun r -> Host.raw_get host (region r) 0 = Trace.region_name (region r))
           regions)

(* --- Coprocessor --- *)

let test_co_roundtrip () =
  let host, co = fresh () in
  let (_ : Host.t) = Host.define_region host Trace.Scratch ~size:2 in
  Co.put co Trace.Scratch 0 "hello tuple";
  Alcotest.(check string) "roundtrip" "hello tuple" (Co.get co Trace.Scratch 0);
  Alcotest.(check int) "two transfers" 2 (Co.transfers co)

let test_co_semantic_security () =
  (* Two puts of the same plaintext must produce different ciphertexts. *)
  let host, co = fresh () in
  let (_ : Host.t) = Host.define_region host Trace.Scratch ~size:2 in
  Co.put co Trace.Scratch 0 "same";
  Co.put co Trace.Scratch 1 "same";
  Alcotest.(check bool) "fresh nonces" true
    (not (String.equal (Host.raw_get host Trace.Scratch 0) (Host.raw_get host Trace.Scratch 1)))

let test_co_tamper_detected () =
  let host, co = fresh () in
  let (_ : Host.t) = Host.define_region host Trace.Scratch ~size:1 in
  Co.put co Trace.Scratch 0 "precious";
  Host.tamper host Trace.Scratch 0 ~byte:20;
  Alcotest.(check bool) "raises Tamper_detected" true
    (try
       ignore (Co.get co Trace.Scratch 0);
       false
     with Co.Tamper_detected _ -> true)

let prop_co_tamper_any_byte =
  qtest "any tampered byte is detected" QCheck.(int_range 0 200) (fun byte ->
      let host, co = fresh () in
      let (_ : Host.t) = Host.define_region host Trace.Scratch ~size:1 in
      Co.put co Trace.Scratch 0 (String.make 40 'p');
      Host.tamper host Trace.Scratch 0 ~byte;
      try
        ignore (Co.get co Trace.Scratch 0);
        false
      with Co.Tamper_detected _ -> true)

let test_co_memory_ledger () =
  let _, co = fresh ~m:4 () in
  Co.alloc co 3;
  Alcotest.(check int) "in use" 3 (Co.mem_in_use co);
  Alcotest.(check bool) "overflow raises" true
    (try
       Co.alloc co 2;
       false
     with Co.Memory_exceeded _ -> true);
  Co.free co 3;
  Co.alloc co 4;
  Co.free co 4;
  Alcotest.check_raises "underflow" (Invalid_argument "Coprocessor.free: ledger underflow")
    (fun () -> Co.free co 1)

let test_co_trace_records_everything () =
  let host, co = fresh () in
  let (_ : Host.t) = Host.define_region host Trace.Scratch ~size:4 in
  for i = 0 to 3 do
    Co.put co Trace.Scratch i (string_of_int i)
  done;
  for i = 0 to 3 do
    ignore (Co.get co Trace.Scratch i)
  done;
  let tr = Co.trace co in
  Alcotest.(check int) "8 entries" 8 (Trace.length tr);
  Alcotest.(check int) "4 writes then 4 reads" 4 (Trace.writes tr)

let test_co_load_region_silent () =
  let _, co = fresh () in
  Co.load_region co (Trace.Table "A") [| "t0"; "t1" |];
  Alcotest.(check int) "setup not traced" 0 (Co.transfers co);
  Alcotest.(check string) "readable" "t1" (Co.get co (Trace.Table "A") 1)

let test_co_cycles () =
  let _, co = fresh () in
  Co.tick co 5;
  Co.tick co 5;
  Alcotest.(check int) "cycles" 10 (Co.cycles co)

let test_co_seed_determinism () =
  let _, co1 = fresh ~seed:42 () in
  let _, co2 = fresh ~seed:42 () in
  Alcotest.(check int) "same internal randomness" (Co.fresh_seed co1) (Co.fresh_seed co2)

(* Allocation budget of the transfer path, in minor words: every
   transfer is one OCB seal or open, so a per-call string or closure
   here multiplies into every algorithm's run time (and, on the Domains
   backend, into stop-the-world minor collections). *)
let minor_words_per n f =
  let before = Gc.minor_words () in
  for i = 1 to n do
    f i
  done;
  (Gc.minor_words () -. before) /. float_of_int n

let test_co_transfer_allocation () =
  let slots = 16 in
  let _, co = fresh () in
  Co.load_region co Trace.Scratch (Array.init slots (fun i -> Printf.sprintf "%040d" i));
  let pair i =
    let k = i mod slots in
    Co.put co Trace.Scratch k (Co.get co Trace.Scratch k)
  in
  ignore (minor_words_per 100 pair);
  let words = minor_words_per 1000 pair in
  (* 34.2 words with one C call per OCB message, 62.2 on the OCaml core *)
  let budget = if Ppj_crypto.Aes.hardware then 40. else 70. in
  if words > budget then
    Alcotest.failf "%.1f minor words per get+put pair (budget %.0f)" words budget

let test_aes_into_allocation () =
  (* Both the dispatched path (the AES instructions where the CPU has
     them) and the T-table rounds. *)
  let module Aes = Ppj_crypto.Aes in
  let k = Aes.expand (String.make 16 'k') in
  let buf = Bytes.make 16 'b' in
  List.iter
    (fun (path, encrypt_into, decrypt_into) ->
      let enc _ = encrypt_into k ~src:buf ~src_pos:0 ~dst:buf ~dst_pos:0 in
      let dec _ = decrypt_into k ~src:buf ~src_pos:0 ~dst:buf ~dst_pos:0 in
      ignore (minor_words_per 10 dec);
      Alcotest.(check int) (path ^ " encrypt_into words per call") 0
        (Float.to_int (minor_words_per 1000 enc));
      Alcotest.(check int) (path ^ " decrypt_into words per call") 0
        (Float.to_int (minor_words_per 1000 dec)))
    [ ("dispatched", Aes.encrypt_into, Aes.decrypt_into);
      ("T-table", Aes.Table.encrypt_into, Aes.Table.decrypt_into)
    ]

let test_trace_record_allocation () =
  (* Once its array has grown, recording allocates nothing: an entry is
     one int, its regions interned once. *)
  let t = Trace.create () in
  let a = Trace.Table (String.make 1 'A') and out = Trace.Output in
  for i = 0 to 4999 do
    Trace.record t Trace.Read a i
  done;
  let step i =
    Trace.record t
      (if i land 1 = 0 then Trace.Read else Trace.Write)
      (if i land 2 = 0 then a else out)
      i
  in
  ignore (minor_words_per 100 step);
  Alcotest.(check int) "record words per call" 0 (Float.to_int (minor_words_per 1000 step))

(* --- Attestation --- *)

let layers =
  [ { Attestation.name = "miniboot"; code = "mb" };
    { Attestation.name = "os"; code = "cpos" };
    { Attestation.name = "app"; code = "join-svc" }
  ]

let test_attestation_ok () =
  let chain = Attestation.certify ~device_key:"dk" layers in
  let expected = List.map Attestation.layer_digest layers in
  Alcotest.(check bool) "verifies" true (Attestation.verify ~device_key:"dk" ~expected chain)

let test_attestation_wrong_key () =
  let chain = Attestation.certify ~device_key:"dk" layers in
  let expected = List.map Attestation.layer_digest layers in
  Alcotest.(check bool) "other key fails" false
    (Attestation.verify ~device_key:"other" ~expected chain)

let test_attestation_modified_code () =
  let chain = Attestation.certify ~device_key:"dk" layers in
  let evil = [ { Attestation.name = "app"; code = "evil" } ] in
  let expected =
    List.map Attestation.layer_digest
      (List.filteri (fun i _ -> i < 2) layers @ evil)
  in
  Alcotest.(check bool) "digest mismatch" false
    (Attestation.verify ~device_key:"dk" ~expected chain)

let test_attestation_truncated_chain () =
  let chain = Attestation.certify ~device_key:"dk" layers in
  let expected = List.map Attestation.layer_digest layers in
  Alcotest.(check bool) "truncated fails" false
    (Attestation.verify ~device_key:"dk" ~expected (List.filteri (fun i _ -> i < 2) chain))

(* --- Channel --- *)

let contract =
  { Channel.contract_id = "c-7";
    providers = [ "pa"; "pb" ];
    recipient = "pc";
    predicate = "eq(key,key)";
  }

let schema = Workload.keyed_schema ()

let relation () =
  let rng = Rng.create 5 in
  Workload.uniform rng ~name:"pa" ~n:13 ~key_domain:7

let test_channel_roundtrip () =
  let p = Channel.party ~id:"pa" ~secret:(String.make 16 's') in
  let r = relation () in
  let s = Channel.submit p contract r in
  match Channel.accept p contract schema s with
  | Ok r' ->
      Alcotest.(check int) "cardinality" (Relation.cardinality r) (Relation.cardinality r');
      Alcotest.(check bool) "tuples preserved" true
        (Array.for_all2 Ppj_relation.Tuple.equal r.Relation.tuples r'.Relation.tuples)
  | Error e -> Alcotest.fail e

let test_channel_contract_mismatch () =
  let p = Channel.party ~id:"pa" ~secret:(String.make 16 's') in
  let s = Channel.submit p contract (relation ()) in
  let other = { contract with Channel.contract_id = "c-8" } in
  Alcotest.(check bool) "rejected" true
    (match Channel.accept p other schema s with Error "contract mismatch" -> true | _ -> false)

let test_channel_wrong_key () =
  let p = Channel.party ~id:"pa" ~secret:(String.make 16 's') in
  let q = Channel.party ~id:"pa" ~secret:(String.make 16 't') in
  let s = Channel.submit p contract (relation ()) in
  Alcotest.(check bool) "auth failure" true
    (match Channel.accept q contract schema s with
    | Error "authentication failure" -> true
    | _ -> false)

let test_channel_result_roundtrip () =
  let p = Channel.party ~id:"pc" ~secret:(String.make 16 'r') in
  let reals = [ Ppj_relation.Decoy.real "aaaa"; Ppj_relation.Decoy.real "bbbb" ] in
  let decoys = [ Ppj_relation.Decoy.decoy ~payload:4 ] in
  let sealed = Channel.seal_result p contract (reals @ decoys) in
  match Channel.open_result p contract sealed with
  | Ok got -> Alcotest.(check (list string)) "decoys dropped" reals got
  | Error e -> Alcotest.fail e

let test_channel_empty_result () =
  let p = Channel.party ~id:"pc" ~secret:(String.make 16 'r') in
  let sealed = Channel.seal_result p contract [] in
  match Channel.open_result p contract sealed with
  | Ok [] -> ()
  | Ok _ -> Alcotest.fail "expected empty"
  | Error e -> Alcotest.fail e

let test_handshake_agreement () =
  let rng = Rng.create 31 in
  let mac_key = "identity-mac-key" in
  let h, x = Channel.Handshake.hello rng ~id:"pa" ~mac_key in
  match Channel.Handshake.respond rng ~mac_key h with
  | Error e -> Alcotest.fail e
  | Ok (reply, t_side) -> (
      match Channel.Handshake.finish ~id:"pa" ~mac_key ~exponent:x reply with
      | Error e -> Alcotest.fail e
      | Ok requester_side ->
          (* Both ends derive the same key: a message sealed by one opens
             at the other. *)
          let contract =
            { Channel.contract_id = "hs"; providers = [ "pa" ]; recipient = "pa"; predicate = "p" }
          in
          let sealed = Channel.seal_result requester_side contract [ Ppj_relation.Decoy.real "abcd" ] in
          (match Channel.open_result t_side contract sealed with
          | Ok [ o ] -> Alcotest.(check string) "payload" "abcd" (Ppj_relation.Decoy.payload o)
          | _ -> Alcotest.fail "shared key mismatch"))

let test_handshake_rejects_forged_hello () =
  let rng = Rng.create 32 in
  let h, _ = Channel.Handshake.hello rng ~id:"pa" ~mac_key:"good-key" in
  (* MITM replaces the public value. *)
  let h' = Channel.Handshake.corrupt_hello h in
  Alcotest.(check bool) "rejected" true
    (match Channel.Handshake.respond rng ~mac_key:"good-key" h' with Error _ -> true | Ok _ -> false)

let test_handshake_rejects_wrong_identity_key () =
  let rng = Rng.create 33 in
  let h, _ = Channel.Handshake.hello rng ~id:"pa" ~mac_key:"key-one" in
  Alcotest.(check bool) "rejected" true
    (match Channel.Handshake.respond rng ~mac_key:"key-two" h with Error _ -> true | Ok _ -> false)

let test_handshake_reply_authenticated () =
  let rng = Rng.create 34 in
  let h, x = Channel.Handshake.hello rng ~id:"pa" ~mac_key:"k" in
  match Channel.Handshake.respond rng ~mac_key:"k" h with
  | Error e -> Alcotest.fail e
  | Ok (_reply, _) -> (
      (* An attacker substituting its own reply fails the finish check. *)
      let fake, _ = Channel.Handshake.hello rng ~id:"pa" ~mac_key:"k" in
      match Channel.Handshake.respond rng ~mac_key:"attacker" fake with
      | Ok _ -> Alcotest.fail "attacker should not authenticate"
      | Error _ -> (
          match
            Channel.Handshake.finish ~id:"pa" ~mac_key:"k" ~exponent:(x + 1)
              (match Channel.Handshake.respond rng ~mac_key:"k" h with
              | Ok (r, _) -> r
              | Error e -> Alcotest.fail e)
          with
          | Error _ -> ()
          | Ok _ -> Alcotest.fail "mismatched exponent must fail the MAC"))

let flip_last s =
  let b = Bytes.of_string s in
  let i = Bytes.length b - 1 in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 1));
  Bytes.to_string b

let test_handshake_rejects_tampered_hello_mac () =
  let rng = Rng.create 35 in
  let h, _ = Channel.Handshake.hello rng ~id:"pa" ~mac_key:"k" in
  let h' = { h with Channel.Handshake.mac = flip_last h.Channel.Handshake.mac } in
  match Channel.Handshake.respond rng ~mac_key:"k" h' with
  | Error e -> Alcotest.(check bool) "useful error" true (String.length e > 0)
  | Ok _ -> Alcotest.fail "hello with a flipped MAC bit authenticated"

let test_handshake_rejects_tampered_reply_mac () =
  let rng = Rng.create 36 in
  let h, x = Channel.Handshake.hello rng ~id:"pa" ~mac_key:"k" in
  match Channel.Handshake.respond rng ~mac_key:"k" h with
  | Error e -> Alcotest.fail e
  | Ok (reply, _) -> (
      let reply' = { reply with Channel.Handshake.mac = flip_last reply.Channel.Handshake.mac } in
      match Channel.Handshake.finish ~id:"pa" ~mac_key:"k" ~exponent:x reply' with
      | Error e -> Alcotest.(check bool) "useful error" true (String.length e > 0)
      | Ok _ -> Alcotest.fail "reply with a flipped MAC bit authenticated")

let test_handshake_rejects_wrong_key_at_finish () =
  let rng = Rng.create 37 in
  let h, x = Channel.Handshake.hello rng ~id:"pa" ~mac_key:"k" in
  match Channel.Handshake.respond rng ~mac_key:"k" h with
  | Error e -> Alcotest.fail e
  | Ok (reply, _) -> (
      match Channel.Handshake.finish ~id:"pa" ~mac_key:"other-key" ~exponent:x reply with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "finish accepted a reply under the wrong identity key")

let test_handshake_replay_rejected () =
  let rng = Rng.create 38 in
  let guard = Channel.Handshake.responder () in
  let h, x = Channel.Handshake.hello rng ~id:"pa" ~mac_key:"k" in
  (match Channel.Handshake.respond_guarded guard rng ~mac_key:"k" h with
  | Error e -> Alcotest.fail e
  | Ok (reply, _) -> (
      match Channel.Handshake.finish ~id:"pa" ~mac_key:"k" ~exponent:x reply with
      | Ok _ -> ()
      | Error e -> Alcotest.fail e));
  (* Same hello again: a captured first flight must not open a second
     session. *)
  (match Channel.Handshake.respond_guarded guard rng ~mac_key:"k" h with
  | Error e -> Alcotest.(check string) "reason" "handshake: replayed hello" e
  | Ok _ -> Alcotest.fail "replayed hello answered");
  (* A fresh hello from the same identity is still fine. *)
  let h2, _ = Channel.Handshake.hello rng ~id:"pa" ~mac_key:"k" in
  match Channel.Handshake.respond_guarded guard rng ~mac_key:"k" h2 with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e

let test_direction_nonces_disjoint () =
  (* Both ends of a DH-derived session hold the same OCB key, so the two
     directions must never seal under the same nonce: the responder's
     nonce stream (handed out by [respond]) has to be disjoint from the
     initiator's (handed out by [finish]) at every counter position. *)
  let rng = Rng.create 39 in
  let mac_key = "k" in
  let h, x = Channel.Handshake.hello rng ~id:"pa" ~mac_key in
  match Channel.Handshake.respond rng ~mac_key h with
  | Error e -> Alcotest.fail e
  | Ok (reply, t_side) -> (
      match Channel.Handshake.finish ~id:"pa" ~mac_key ~exponent:x reply with
      | Error e -> Alcotest.fail e
      | Ok requester_side ->
          let nonce_of sealed = String.sub sealed 0 16 in
          let stream p = List.init 64 (fun i -> nonce_of (Channel.seal p (string_of_int i))) in
          let initiator = stream requester_side in
          let responder = stream t_side in
          List.iter
            (fun n ->
              if List.mem n responder then
                Alcotest.fail "initiator and responder drew the same nonce")
            initiator;
          (* Disjoint nonces, same key: traffic still opens across
             directions. *)
          let sealed = Channel.seal t_side "from-T" in
          (match Channel.open_sealed requester_side sealed with
          | Ok "from-T" -> ()
          | _ -> Alcotest.fail "responder-sealed message did not open at the initiator"))

let test_replay_guard_bounded () =
  let rng = Rng.create 40 in
  let guard = Channel.Handshake.responder ~capacity:2 () in
  let answer h =
    match Channel.Handshake.respond_guarded guard rng ~mac_key:"k" h with
    | Ok _ -> `Answered
    | Error _ -> `Rejected
  in
  let hello () = fst (Channel.Handshake.hello rng ~id:"pa" ~mac_key:"k") in
  let h1 = hello () and h2 = hello () and h3 = hello () in
  Alcotest.(check bool) "h1 answered" true (answer h1 = `Answered);
  Alcotest.(check bool) "h2 answered" true (answer h2 = `Answered);
  Alcotest.(check bool) "h2 replay rejected" true (answer h2 = `Rejected);
  (* A third handshake evicts the oldest entry... *)
  Alcotest.(check bool) "h3 answered" true (answer h3 = `Answered);
  (* ...so the guard still rejects replays inside its window... *)
  Alcotest.(check bool) "h3 replay rejected" true (answer h3 = `Rejected);
  Alcotest.(check bool) "h2 replay still rejected" true (answer h2 = `Rejected);
  (* ...while the evicted h1 falls outside it (the documented bound). *)
  Alcotest.(check bool) "evicted h1 is answerable again" true (answer h1 = `Answered)

let test_channel_bad_secret_length () =
  Alcotest.check_raises "16 bytes" (Invalid_argument "Channel.party: secret must be 16 bytes")
    (fun () -> ignore (Channel.party ~id:"x" ~secret:"short"))

let () =
  Alcotest.run "scpu"
    [ ( "trace",
        [ Alcotest.test_case "record and count" `Quick test_trace_record;
          Alcotest.test_case "equality and divergence" `Quick test_trace_equal_and_divergence;
          Alcotest.test_case "growth" `Quick test_trace_growth;
          Alcotest.test_case "interning order" `Quick test_trace_interning_order;
          test_by_region_matches_fold;
          test_trace_model
        ] );
      ( "host",
        [ Alcotest.test_case "regions" `Quick test_host_regions;
          Alcotest.test_case "undefined region" `Quick test_host_undefined_region;
          Alcotest.test_case "empty slot" `Quick test_host_empty_slot;
          Alcotest.test_case "persist" `Quick test_host_persist;
          Alcotest.test_case "redefine/restore/reset read new slots" `Quick
            test_host_replaced_regions;
          test_host_region_order
        ] );
      ( "coprocessor",
        [ Alcotest.test_case "get/put roundtrip" `Quick test_co_roundtrip;
          Alcotest.test_case "semantic security" `Quick test_co_semantic_security;
          Alcotest.test_case "tamper detection" `Quick test_co_tamper_detected;
          Alcotest.test_case "memory ledger" `Quick test_co_memory_ledger;
          Alcotest.test_case "trace completeness" `Quick test_co_trace_records_everything;
          Alcotest.test_case "setup not traced" `Quick test_co_load_region_silent;
          Alcotest.test_case "cycle counter" `Quick test_co_cycles;
          Alcotest.test_case "seeded determinism" `Quick test_co_seed_determinism;
          Alcotest.test_case "transfer allocation budget" `Quick test_co_transfer_allocation;
          Alcotest.test_case "AES _into allocates nothing" `Quick test_aes_into_allocation;
          Alcotest.test_case "trace record allocates nothing" `Quick test_trace_record_allocation;
          prop_co_tamper_any_byte
        ] );
      ( "attestation",
        [ Alcotest.test_case "valid chain" `Quick test_attestation_ok;
          Alcotest.test_case "wrong device key" `Quick test_attestation_wrong_key;
          Alcotest.test_case "modified code" `Quick test_attestation_modified_code;
          Alcotest.test_case "truncated chain" `Quick test_attestation_truncated_chain
        ] );
      ( "channel",
        [ Alcotest.test_case "submit/accept roundtrip" `Quick test_channel_roundtrip;
          Alcotest.test_case "contract mismatch" `Quick test_channel_contract_mismatch;
          Alcotest.test_case "wrong key" `Quick test_channel_wrong_key;
          Alcotest.test_case "result roundtrip" `Quick test_channel_result_roundtrip;
          Alcotest.test_case "empty result" `Quick test_channel_empty_result;
          Alcotest.test_case "bad secret length" `Quick test_channel_bad_secret_length;
          Alcotest.test_case "handshake key agreement" `Quick test_handshake_agreement;
          Alcotest.test_case "handshake forged hello" `Quick test_handshake_rejects_forged_hello;
          Alcotest.test_case "handshake wrong identity" `Quick test_handshake_rejects_wrong_identity_key;
          Alcotest.test_case "handshake reply auth" `Quick test_handshake_reply_authenticated;
          Alcotest.test_case "handshake tampered hello mac" `Quick
            test_handshake_rejects_tampered_hello_mac;
          Alcotest.test_case "handshake tampered reply mac" `Quick
            test_handshake_rejects_tampered_reply_mac;
          Alcotest.test_case "handshake wrong key at finish" `Quick
            test_handshake_rejects_wrong_key_at_finish;
          Alcotest.test_case "handshake replay rejected" `Quick test_handshake_replay_rejected;
          Alcotest.test_case "direction nonces disjoint" `Quick test_direction_nonces_disjoint;
          Alcotest.test_case "replay guard bounded" `Quick test_replay_guard_bounded
        ] )
    ]
