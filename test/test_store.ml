(* The durable sealed store: CRC framing known answers, journal
   recover-to-prefix under random truncation/bit-flips/duplicated tails
   (never an exception, never a silently-applied corrupt record),
   repair idempotence, ENOSPC sealing, NVRAM monotonicity and forged
   rollback refusals, snapshot compaction, and kill -9 style restart
   recovery driven through two Server generations over one state
   directory — plus the client's decorrelated retry jitter. *)

module Journal = Ppj_store.Journal
module Record = Ppj_store.Record
module Store = Ppj_store.Store
module Rng = Ppj_crypto.Rng
module Registry = Ppj_obs.Registry
module Counter = Ppj_obs.Counter
open Ppj_net
module Ch = Ppj_scpu.Channel
module W = Ppj_relation.Workload
module P = Ppj_relation.Predicate
module T = Ppj_relation.Tuple
module Service = Ppj_core.Service

let mac_key = "test-store-mac-key"

let tmp_dir () =
  let d = Filename.temp_file "ppj-store" "" in
  Sys.remove d;
  d

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error _ -> ()

let with_dir k =
  let d = tmp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf d) (fun () -> k d)

let journal_file dir = Filename.concat dir "journal.bin"
let snapshot_file dir = Filename.concat dir "snapshot.bin"

let read_bin path = In_channel.with_open_bin path In_channel.input_all

let write_bin path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

let ok = function
  | Ok v -> v
  | Error (`Sealed | `Io _ as e) -> Alcotest.fail (Store.append_error_message e)

let opened = function
  | Ok v -> v
  | Error e -> Alcotest.fail (Store.error_message e)

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.equal (String.sub s i n) sub || go (i + 1)) in
  n = 0 || go 0

let plain_meta epoch = "\x00" ^ Record.encode (Record.Meta { format = 1; epoch })

(* --- record codec ------------------------------------------------------ *)

(* One value per record constructor. *)
let sample_records =
  [ Record.Meta { format = 1; epoch = 7 };
    Record.Contract { digest = "d1"; body = "contract-body" };
    Record.Submission { contract = "d1"; provider = "alice"; body = "\x00rel" };
    Record.Nvram { name = "ckpt:d1:c1"; value = -3 };
    Record.Checkpoint { contract = "d1"; config = "c1"; body = "image" };
    Record.Result { contract = "d1"; config = "c1"; body = "" };
    Record.Clear { contract = "d1"; config = "c1" };
  ]

(* The pinned value is what earlier builds wrote: if it moves, a state
   directory of an earlier build no longer replays. *)
let test_record_codec () =
  List.iter
    (fun r -> Alcotest.(check bool) (Record.kind r) true (Record.decode (Record.encode r) = Ok r))
    sample_records;
  Alcotest.(check string) "records pinned" "7c4d8f61c76d5e935ab3be41aa410fa9"
    (Digest.to_hex (Digest.string (String.concat "\x00" (List.map Record.encode sample_records))))

let test_record_decoder_total =
  let open QCheck.Gen in
  let str = string_size ~gen:char (int_range 0 6) in
  Totality.check "decode is total" ~print:Record.kind
    (oneof
       [ map2 (fun format epoch -> Record.Meta { format; epoch }) (int_range 0 0x7FFFFFFF) int;
         map2 (fun digest body -> Record.Contract { digest; body }) str str;
         map3
           (fun contract provider body -> Record.Submission { contract; provider; body })
           str str str;
         map2 (fun name value -> Record.Nvram { name; value }) str int;
         map3
           (fun contract config body -> Record.Checkpoint { contract; config; body })
           str str str;
         map3 (fun contract config body -> Record.Result { contract; config; body }) str str str;
         map2 (fun contract config -> Record.Clear { contract; config }) str str;
       ])
    ~encode:Record.encode
    ~decode:(fun _ -> Record.decode)

(* --- CRC and framing -------------------------------------------------- *)

let test_crc_kat () =
  (* The IEEE 802.3 check value: crc32("123456789") = 0xCBF43926. *)
  Alcotest.(check int) "crc32 check value" 0xCBF43926 (Journal.crc32 "123456789");
  Alcotest.(check int) "crc32 empty" 0 (Journal.crc32 "")

let test_journal_roundtrip () =
  with_dir (fun dir ->
      Unix.mkdir dir 0o700;
      let path = journal_file dir in
      let payloads = [ "alpha"; ""; String.make 1000 'z'; "\x00\x01\xff" ] in
      let w = Result.get_ok (Journal.open_append path) in
      List.iter (fun p -> Result.get_ok (Journal.append w p)) payloads;
      Journal.close w;
      let c = Journal.read_file path in
      Alcotest.(check (list string)) "payloads survive" payloads
        (List.map snd c.Journal.records);
      Alcotest.(check bool) "clean tail" true (c.Journal.tail = Journal.Clean))

let test_write_atomic_roundtrip () =
  with_dir (fun dir ->
      Unix.mkdir dir 0o700;
      let path = snapshot_file dir in
      Result.get_ok (Journal.write_atomic path [ "one"; "two" ]);
      Result.get_ok (Journal.write_atomic path [ "three" ]);
      let c = Journal.read_file path in
      Alcotest.(check (list string)) "last write wins whole" [ "three" ]
        (List.map snd c.Journal.records);
      Alcotest.(check bool) "no tmp left behind" false (Sys.file_exists (path ^ ".tmp")))

(* --- reader fuzz: recover to prefix, never throw ----------------------- *)

let fuzz_payloads rng =
  List.init
    (1 + Rng.int rng 8)
    (fun i -> String.init (Rng.int rng 40) (fun j -> Char.chr ((i * 31 + j + Rng.int rng 256) land 0xff)))

let prefix_of ~of_:full l =
  List.length l <= List.length full
  && List.for_all2 (fun a b -> String.equal a b) l (List.filteri (fun i _ -> i < List.length l) full)

let build_journal dir rng =
  let path = journal_file dir in
  let payloads = fuzz_payloads rng in
  let w = Result.get_ok (Journal.open_append path) in
  List.iter (fun p -> Result.get_ok (Journal.append w p)) payloads;
  Journal.close w;
  (path, payloads)

(* Random truncation: the reader recovers the longest clean prefix and
   types the dropped tail; it never raises. *)
let test_fuzz_truncation =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"truncation recovers to prefix" ~count:120 QCheck.small_nat
       (fun seed ->
         with_dir (fun dir ->
             Unix.mkdir dir 0o700;
             let rng = Rng.create (seed + 1) in
             let path, payloads = build_journal dir rng in
             let size = (Unix.stat path).Unix.st_size in
             let cut = Rng.int rng (size + 1) in
             Journal.truncate_file path cut;
             let c = Journal.read_file path in
             let got = List.map snd c.Journal.records in
             prefix_of ~of_:payloads got
             && c.Journal.clean_bytes <= cut
             && (c.Journal.tail = Journal.Clean) = (c.Journal.clean_bytes = cut))))

(* Single bit-flips: CRC32 catches every 1-bit error, so the damaged
   frame (and everything after it) is dropped, never returned changed. *)
let test_fuzz_bitflip =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"bit-flip recovers to prefix" ~count:120 QCheck.small_nat
       (fun seed ->
         with_dir (fun dir ->
             Unix.mkdir dir 0o700;
             let rng = Rng.create (seed + 1001) in
             let path, payloads = build_journal dir rng in
             let bytes = Bytes.of_string (read_bin path) in
             let off = Rng.int rng (Bytes.length bytes) in
             let bit = 1 lsl Rng.int rng 8 in
             Bytes.set bytes off (Char.chr (Char.code (Bytes.get bytes off) lxor bit));
             write_bin path (Bytes.to_string bytes);
             let c = Journal.read_file path in
             let got = List.map snd c.Journal.records in
             prefix_of ~of_:payloads got
             && List.length got < List.length payloads
             && c.Journal.tail <> Journal.Clean)))

(* Duplicated tail frames stay CRC-clean, so the journal reader keeps
   them; the store either applies them idempotently or refuses with a
   typed error — never an exception, never a half-applied view. *)
let test_fuzz_dup_tail =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"duplicated tail is idempotent or refused" ~count:120
       QCheck.small_nat (fun seed ->
         with_dir (fun dir ->
             let s, _ = opened (Store.open_dir ~mac_key dir) in
             ok (Store.put_contract s ~digest:"d1" "contract-body-1");
             ok (Store.nvram_set s ~name:"n" (1 + (seed mod 7)));
             ok (Store.put_submission s ~contract:"d1" ~provider:"alice" "sub-body");
             Store.close s;
             let path = journal_file dir in
             let raw = read_bin path in
             let c = Journal.read_file path in
             (* Duplicate everything from a random clean frame boundary on. *)
             let offsets = List.map fst c.Journal.records in
             let from = List.nth offsets (Rng.int (Rng.create seed) (List.length offsets)) in
             write_bin path (raw ^ String.sub raw from (String.length raw - from));
             let r = Store.check ~mac_key dir in
             if r.Store.r_ok then
               r.Store.r_contracts = 1 && r.Store.r_submissions = 1
               && r.Store.r_nvram = [ ("n", 1 + (seed mod 7)) ]
             else r.Store.r_error <> None)))

(* The last record's tail is torn off, or one of its sealed bytes is
   flipped: either way it is quarantined, never read back. *)
let test_recover_twice_equals_once () =
  let truncate path = Journal.truncate_file path ((Unix.stat path).Unix.st_size - 5) in
  let flip path =
    let b = Bytes.of_string (read_bin path) in
    let off = Bytes.length b - 5 in
    Bytes.set b off (Char.chr (Char.code (Bytes.get b off) lxor 0x40));
    write_bin path (Bytes.to_string b)
  in
  List.iter
    (fun (damage, doctor) ->
      with_dir (fun dir ->
          let s, _ = opened (Store.open_dir ~mac_key dir) in
          ok (Store.put_contract s ~digest:"d1" "body-1");
          ok (Store.put_contract s ~digest:"d2" "body-2");
          Store.close s;
          doctor (journal_file dir);
          (* First open repairs the damaged tail... *)
          let s, h1 = opened (Store.open_dir ~mac_key dir) in
          Alcotest.(check bool) (damage ^ ": tail quarantined") true
            (h1.Store.quarantined_bytes > 0);
          let view1 = Store.contracts s in
          Store.close s;
          (* ...and a second open finds nothing left to repair: recovery
             is idempotent. *)
          let s, h2 = opened (Store.open_dir ~mac_key dir) in
          Alcotest.(check int) (damage ^ ": nothing further quarantined") 0
            h2.Store.quarantined_bytes;
          Alcotest.(check int) (damage ^ ": no records lost to the second pass")
            (List.length view1)
            (List.length (Store.contracts s));
          Alcotest.(check (list string)) (damage ^ ": surviving contract intact") [ "body-1" ]
            (List.map snd view1);
          Store.close s))
    [ ("truncated", truncate); ("bit-flipped", flip) ]

(* --- full-device sealing ----------------------------------------------- *)

let test_enospc_seals_readonly () =
  with_dir (fun dir ->
      let s, _ = opened (Store.open_dir ~journal_max_bytes:400 ~mac_key dir) in
      let rec fill i acked =
        if i > 50 then acked
        else
          match Store.put_contract s ~digest:(Printf.sprintf "d%02d" i) (String.make 64 'x') with
          | Ok () -> fill (i + 1) (acked + 1)
          | Error `Sealed -> acked
          | Error (`Io e) -> Alcotest.fail e
      in
      let acked = fill 0 0 in
      Alcotest.(check bool) "some writes fit" true (acked > 0);
      Alcotest.(check bool) "store sealed read-only" true (Store.is_sealed s);
      (* Sealed means shed, not raise: further writes report the typed
         error. *)
      (match Store.put_contract s ~digest:"late" "y" with
      | Error `Sealed -> ()
      | Ok () -> Alcotest.fail "write accepted on a sealed store"
      | Error (`Io e) -> Alcotest.fail e);
      Store.close s;
      (* Every acknowledged record survives reopen without the size cap;
         the torn partial write (if any) is quarantined, not applied. *)
      let s, h = opened (Store.open_dir ~mac_key dir) in
      Alcotest.(check int) "acked records survive" acked (List.length (Store.contracts s));
      Alcotest.(check bool) "no phantom records" true (h.Store.journal_records = acked);
      Store.close s)

(* --- NVRAM monotonicity and rollback ----------------------------------- *)

let test_nvram_monotonic () =
  with_dir (fun dir ->
      let s, _ = opened (Store.open_dir ~mac_key dir) in
      ok (Store.nvram_set s ~name:"v" 1);
      ok (Store.nvram_set s ~name:"v" 2);
      ok (Store.nvram_set s ~name:"v" 2);
      (* equal is allowed *)
      Alcotest.check_raises "decrease refused locally"
        (Invalid_argument "Store.nvram_set: counter \"v\" is monotonic (2 -> 1 refused)")
        (fun () -> Result.iter Fun.id (Store.nvram_set s ~name:"v" 1));
      Alcotest.(check (option int)) "value held" (Some 2) (Store.nvram s "v");
      Store.close s;
      let s, _ = opened (Store.open_dir ~mac_key dir) in
      Alcotest.(check (option int)) "durable across reopen" (Some 2) (Store.nvram s "v");
      Store.close s)

let test_forged_nvram_rollback_refused () =
  (* Splice a genuinely-sealed nvram record carrying a smaller value
     (from a second store under the same key) onto the first store's
     journal: replay must refuse the generation, not adopt the
     rollback. *)
  let dir_a = tmp_dir () and dir_b = tmp_dir () in
  Fun.protect
    ~finally:(fun () ->
      rm_rf dir_a;
      rm_rf dir_b)
    (fun () ->
      let a, _ = opened (Store.open_dir ~mac_key dir_a) in
      ok (Store.nvram_set a ~name:"v" 5);
      Store.close a;
      let b, _ = opened (Store.open_dir ~mac_key dir_b) in
      ok (Store.nvram_set b ~name:"v" 3);
      Store.close b;
      let frames path = (Journal.read_file path).Journal.records in
      let raw_b = read_bin (journal_file dir_b) in
      (* B's journal is [meta][nvram v=3]; splice the nvram frame. *)
      let nvram_off =
        match frames (journal_file dir_b) with
        | [ _; (off, _) ] -> off
        | _ -> Alcotest.fail "unexpected journal shape"
      in
      let spliced = String.sub raw_b nvram_off (String.length raw_b - nvram_off) in
      write_bin (journal_file dir_a) (read_bin (journal_file dir_a) ^ spliced);
      let r = Store.check ~mac_key dir_a in
      Alcotest.(check bool) "refused" false r.Store.r_ok;
      (match r.Store.r_error with
      | Some e -> Alcotest.(check bool) "typed rollback" true (contains ~sub:"backwards" e)
      | None -> Alcotest.fail "no error reported");
      match Store.open_dir ~mac_key dir_a with
      | Error (Store.Rollback _) -> ()
      | Error e -> Alcotest.fail ("wrong refusal: " ^ Store.error_message e)
      | Ok _ -> Alcotest.fail "open accepted a forged rollback")

let test_epoch_rollback_refused () =
  with_dir (fun dir ->
      Unix.mkdir dir 0o700;
      Result.get_ok (Journal.write_atomic (snapshot_file dir) [ plain_meta 2 ]);
      Result.get_ok (Journal.write_atomic (journal_file dir) [ plain_meta 3 ]);
      let r = Store.check ~mac_key dir in
      Alcotest.(check bool) "refused" false r.Store.r_ok;
      match r.Store.r_error with
      | Some e -> Alcotest.(check bool) "names the rollback" true (contains ~sub:"rolled back" e)
      | None -> Alcotest.fail "no error reported")

let test_stale_journal_generation_discarded () =
  (* The mirror image: the journal is one epoch behind the snapshot —
     the compaction crash window — so its records are already inside
     the snapshot and must be discarded, not re-applied. *)
  with_dir (fun dir ->
      let s, _ = opened (Store.open_dir ~mac_key dir) in
      for i = 0 to 9 do
        ok (Store.put_contract s ~digest:(Printf.sprintf "d%d" i) (String.make 40 'c'))
      done;
      Store.close s;
      let pre_compaction = read_bin (journal_file dir) in
      let s, _ = opened (Store.open_dir ~mac_key dir) in
      ok (Store.compact s);
      Alcotest.(check bool) "compaction advanced the epoch" true (Store.epoch s > 0);
      Store.close s;
      (* The compaction crash window: the old journal generation
         resurfaces next to the newer snapshot. *)
      write_bin (journal_file dir) pre_compaction;
      let s, h = opened (Store.open_dir ~mac_key dir) in
      Alcotest.(check int) "stale generation discarded" 10 h.Store.journal_discarded;
      Alcotest.(check int) "snapshot view intact" 10 (List.length (Store.contracts s));
      Store.close s)

let test_compaction_roundtrip () =
  with_dir (fun dir ->
      let s, _ = opened (Store.open_dir ~mac_key dir) in
      ok (Store.put_contract s ~digest:"d1" "body-1");
      ok (Store.put_submission s ~contract:"d1" ~provider:"alice" "sub-a");
      ok (Store.put_submission s ~contract:"d1" ~provider:"bob" "sub-b");
      ok (Store.nvram_set s ~name:"v" 7);
      ok (Store.put_checkpoint s ~contract:"d1" ~config:"cfg" "ckpt");
      ok (Store.put_result s ~contract:"d1" ~config:"cfg2" "result");
      ok (Store.compact s);
      let epoch = Store.epoch s in
      Alcotest.(check bool) "epoch advanced" true (epoch > 0);
      Store.close s;
      let s, h = opened (Store.open_dir ~mac_key dir) in
      Alcotest.(check int) "same epoch" epoch (Store.epoch s);
      Alcotest.(check int) "journal reset" 0 h.Store.journal_records;
      Alcotest.(check (list (pair string string)))
        "contracts" [ ("d1", "body-1") ] (Store.contracts s);
      Alcotest.(check (list (pair string string)))
        "submissions"
        [ ("alice", "sub-a"); ("bob", "sub-b") ]
        (Store.submissions_of s "d1");
      Alcotest.(check (option int)) "nvram" (Some 7) (Store.nvram s "v");
      Alcotest.(check (option string)) "checkpoint" (Some "ckpt")
        (Store.checkpoint s ~contract:"d1" ~config:"cfg");
      Alcotest.(check (option string)) "result" (Some "result")
        (Store.result s ~contract:"d1" ~config:"cfg2");
      Store.close s)

let test_wrong_key_refused () =
  with_dir (fun dir ->
      let s, _ = opened (Store.open_dir ~mac_key dir) in
      ok (Store.put_contract s ~digest:"d1" "body-1");
      Store.close s;
      (* Sealed records under another key fail authentication; with the
         head meta plain the journal reads as all-quarantine, and check
         reports it rather than inventing records. *)
      let r = Store.check ~mac_key:"some-other-key" dir in
      Alcotest.(check bool) "no records leak through" true
        (r.Store.r_contracts = 0
        && (r.Store.r_health.Store.quarantined_records > 0 || not r.Store.r_ok)))

(* --- restart recovery through two server generations ------------------- *)

let schema = W.keyed_schema ()

let contract =
  { Ch.contract_id = "contract-store-001";
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

let no_sleep = { Client.default_config with recv_timeout = 0.05; sleep = ignore }

(* Servers here are reactors over [Server.t], as [ppj serve] runs them:
   every in-process session crosses one. *)
let loop_client ?config ?registry ?faults server =
  Client.create ?config ?registry (Transport.loopback ?faults server)

let submit_over server id rel =
  let c = loop_client ~config:no_sleep server in
  (match
     Client.submit_relation c
       ~rng:(Rng.create (Hashtbl.hash id))
       ~id ~mac_key ~contract ~schema rel
   with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  Client.close c

let counter_value reg name = Counter.value (Registry.counter reg name)

let inj ?registry s =
  match Ppj_fault.Plan.of_string s with
  | Ok plan -> Ppj_fault.Injector.create ?registry plan
  | Error e -> Alcotest.fail ("bad fault plan: " ^ e)

(* Server generation 1 journals the contract, the uploads and a sealed
   checkpoint, then "dies" (store closed, server dropped) mid-join.
   Generation 2 — a fresh Server over the reopened directory, as after
   kill -9 — must resume from the durable checkpoint and deliver the
   oracle's bytes to a retrying client. *)
let test_durable_resume_across_servers () =
  with_dir (fun dir ->
      let store1, _ = opened (Store.open_dir ~mac_key dir) in
      let faults = inj "crash@t=150" in
      let server1 =
        Reactor.create
          (Server.create ~mac_key ~seed:5 ~faults ~checkpoint_every:32 ~store:store1 ())
      in
      let a, b = workload () in
      submit_over server1 "alice" a;
      submit_over server1 "bob" b;
      (* No retries: the injected crash surfaces as a typed error and
         generation 1 stops here, with the checkpoint already durable. *)
      let c1 =
        loop_client ~config:{ no_sleep with max_retries = 0 } server1
      in
      (match
         Client.fetch_result c1 ~rng:(Rng.create 99) ~id:"carol" ~mac_key ~contract
           service_config
       with
      | Ok _ -> Alcotest.fail "join survived without retries despite injected crash"
      | Error _ -> ());
      Client.close c1;
      Store.close store1;
      let store2, h = opened (Store.open_dir ~mac_key dir) in
      Alcotest.(check bool) "a checkpoint is durable" true
        (Store.checkpoint store2 ~contract:(Ch.contract_digest contract)
           ~config:
             (Ppj_scpu.Attestation.hash (Wire.config_to_string service_config))
        <> None);
      Alcotest.(check int) "no quarantine on clean restart" 0 h.Store.quarantined_bytes;
      let reg2 = Registry.create () in
      let server2 =
        Reactor.create (Server.create ~registry:reg2 ~mac_key ~seed:6 ~store:store2 ())
      in
      let c2 = loop_client ~config:no_sleep server2 in
      let _, tuples =
        match
          Client.fetch_result c2 ~rng:(Rng.create 100) ~id:"carol" ~mac_key ~contract
            service_config
        with
        | Ok v -> v
        | Error e -> Alcotest.fail e
      in
      Alcotest.(check (list string))
        "delivery identical to the fault-free oracle" (in_process_delivery ())
        (List.map T.encode tuples);
      Alcotest.(check int) "resumed from the durable checkpoint" 1
        (counter_value reg2 "net.server.joins.resumed_durable");
      Client.close c2;
      Store.close store2)

(* A finished join's result is durable: a restarted server re-seals the
   cached oTuple stream to the new session instead of recomputing. *)
let test_durable_result_across_servers () =
  with_dir (fun dir ->
      let store1, _ = opened (Store.open_dir ~mac_key dir) in
      let server1 = Reactor.create (Server.create ~mac_key ~seed:5 ~store:store1 ()) in
      let a, b = workload () in
      submit_over server1 "alice" a;
      submit_over server1 "bob" b;
      let c1 = loop_client ~config:no_sleep server1 in
      let _, t1 =
        match
          Client.fetch_result c1 ~rng:(Rng.create 99) ~id:"carol" ~mac_key ~contract
            service_config
        with
        | Ok v -> v
        | Error e -> Alcotest.fail e
      in
      Client.close c1;
      Store.close store1;
      let store2, _ = opened (Store.open_dir ~mac_key dir) in
      let reg2 = Registry.create () in
      let server2 =
        Reactor.create (Server.create ~registry:reg2 ~mac_key ~seed:7 ~store:store2 ())
      in
      let c2 = loop_client ~config:no_sleep server2 in
      let _, t2 =
        match
          Client.fetch_result c2 ~rng:(Rng.create 100) ~id:"carol" ~mac_key ~contract
            service_config
        with
        | Ok v -> v
        | Error e -> Alcotest.fail e
      in
      Alcotest.(check (list string))
        "restored result identical" (List.map T.encode t1) (List.map T.encode t2);
      Alcotest.(check int) "served from the durable result cache" 1
        (counter_value reg2 "net.server.results.restored");
      Alcotest.(check int) "nothing re-executed" 0
        (counter_value reg2 "net.server.joins.executed");
      Client.close c2;
      Store.close store2)

(* A doctored durable checkpoint is quarantined and the join recomputed
   from the pristine submissions: slower, never wrong. *)
let test_doctored_checkpoint_quarantined () =
  with_dir (fun dir ->
      let store1, _ = opened (Store.open_dir ~mac_key dir) in
      let faults = inj "crash@t=150" in
      let server1 =
        Reactor.create
          (Server.create ~mac_key ~seed:5 ~faults ~checkpoint_every:32 ~store:store1 ())
      in
      let a, b = workload () in
      submit_over server1 "alice" a;
      submit_over server1 "bob" b;
      let c1 = loop_client ~config:{ no_sleep with max_retries = 0 } server1 in
      (match
         Client.fetch_result c1 ~rng:(Rng.create 99) ~id:"carol" ~mac_key ~contract
           service_config
       with
      | Ok _ -> Alcotest.fail "join survived without retries despite injected crash"
      | Error _ -> ());
      Client.close c1;
      Store.close store1;
      (* Doctor the durable state: bump the NVRAM counter past the
         checkpoint's sealed version, as a rolled-back checkpoint image
         would look to the device. *)
      let store2, _ = opened (Store.open_dir ~mac_key dir) in
      let name, v =
        match Store.nvram_all store2 with
        | [ (n, v) ] -> (n, v)
        | l -> Alcotest.failf "expected one nvram counter, found %d" (List.length l)
      in
      (match Store.nvram_set store2 ~name (v + 3) with
      | Ok () -> ()
      | Error e -> Alcotest.fail (Store.append_error_message e));
      let reg2 = Registry.create () in
      let server2 =
        Reactor.create (Server.create ~registry:reg2 ~mac_key ~seed:6 ~store:store2 ())
      in
      let c2 = loop_client ~config:no_sleep server2 in
      let _, tuples =
        match
          Client.fetch_result c2 ~rng:(Rng.create 100) ~id:"carol" ~mac_key ~contract
            service_config
        with
        | Ok v -> v
        | Error e -> Alcotest.fail e
      in
      Alcotest.(check (list string))
        "recomputed answer still the oracle's" (in_process_delivery ())
        (List.map T.encode tuples);
      Alcotest.(check int) "stale checkpoint quarantined" 1
        (counter_value reg2 "net.server.checkpoints.quarantined");
      (* The resume counter marks successes only; this attempt failed. *)
      Alcotest.(check int) "no durable resume claimed" 0
        (counter_value reg2 "net.server.joins.resumed_durable");
      Client.close c2;
      Store.close store2)

(* A shard's durable checkpoint sealed under the job seed itself, as
   every slice was before slices got their own coprocessor seeds: the
   upgraded server cannot open it, so it takes the quarantine path and
   recomputes the slice instead of failing the join. *)
let test_shared_seed_checkpoint_quarantined () =
  with_dir (fun dir ->
      let slice =
        { service_config with
          Service.algorithm = Service.Sharded { k = 1; p = 2; inner = Service.Alg5 }
        }
      in
      let crash () = inj "crash@t=60" in
      let store1, _ = opened (Store.open_dir ~mac_key dir) in
      let server1 =
        Reactor.create
          (Server.create ~mac_key ~seed:5 ~faults:(crash ()) ~checkpoint_every:16
             ~store:store1 ())
      in
      let a, b = workload () in
      submit_over server1 "alice" a;
      submit_over server1 "bob" b;
      let c1 = loop_client ~config:{ no_sleep with max_retries = 0 } server1 in
      (match Client.fetch_result c1 ~rng:(Rng.create 99) ~id:"carol" ~mac_key ~contract slice with
      | Ok _ -> Alcotest.fail "join survived without retries despite injected crash"
      | Error _ -> ());
      Client.close c1;
      Store.close store1;
      (* The same slice's checkpoint as the old derivation sealed it:
         coprocessor seed = the job seed. *)
      let old_image = ref None in
      let inst =
        Ppj_core.Instance.create ~faults:(crash ()) ~checkpoint_every:16
          ~on_checkpoint:(fun ~version ~image -> old_image := Some (version, image))
          ~m:slice.Service.m ~seed:slice.Service.seed ~predicate:(P.equijoin2 "key" "key")
          (* named as the server names an accepted submission *)
          [ { a with Ppj_relation.Relation.name = "alice" };
            { b with Ppj_relation.Relation.name = "bob" } ]
      in
      (match
         Ppj_core.Algorithm5.run_slice inst ~k:1 ~p:2 ~s:(Ppj_core.Instance.oracle_size inst)
       with
      | () -> Alcotest.fail "the old-seed run should crash too"
      | exception Ppj_scpu.Coprocessor.Crashed _ -> ());
      let version, image = Option.get !old_image in
      let store2, _ = opened (Store.open_dir ~mac_key dir) in
      let name =
        match Store.nvram_all store2 with
        | [ (n, _) ] -> n
        | l -> Alcotest.failf "expected one nvram counter, found %d" (List.length l)
      in
      ok (Store.nvram_set store2 ~name version);
      ok
        (Store.put_checkpoint store2 ~contract:(Ch.contract_digest contract)
           ~config:(Ppj_scpu.Attestation.hash (Wire.config_to_string slice))
           (Persist.checkpoint_to_string image));
      let reg2 = Registry.create () in
      let server2 =
        Reactor.create (Server.create ~registry:reg2 ~mac_key ~seed:6 ~store:store2 ())
      in
      let c2 = loop_client ~config:no_sleep server2 in
      let _, tuples =
        match
          Client.fetch_result c2 ~rng:(Rng.create 100) ~id:"carol" ~mac_key ~contract slice
        with
        | Ok v -> v
        | Error e -> Alcotest.fail e
      in
      let _, want = Service.execute_join slice ~predicate:(P.equijoin2 "key" "key") [ a; b ] in
      Alcotest.(check (list string))
        "recomputed slice" (List.map T.encode want.Ppj_core.Report.results)
        (List.map T.encode tuples);
      Alcotest.(check int) "old-seed checkpoint quarantined" 1
        (counter_value reg2 "net.server.checkpoints.quarantined");
      Client.close c2;
      Store.close store2)

(* A sealed (full-device) store sheds state-changing requests with a
   typed Unavailable instead of acknowledging writes it cannot keep. *)
let test_sealed_store_sheds () =
  with_dir (fun dir ->
      let store, _ = opened (Store.open_dir ~journal_max_bytes:64 ~mac_key dir) in
      let reg = Registry.create () in
      let server = Reactor.create (Server.create ~registry:reg ~mac_key ~seed:5 ~store ()) in
      let a, _ = workload () in
      let c = loop_client ~config:no_sleep server in
      (match
         Client.submit_relation c
           ~rng:(Rng.create 1)
           ~id:"alice" ~mac_key ~contract ~schema a
       with
      | Ok () -> Alcotest.fail "upload acknowledged on a full device"
      | Error e -> Alcotest.(check bool) "typed unavailable" true (contains ~sub:"shed" e));
      Alcotest.(check bool) "shed counted" true
        (counter_value reg "net.server.store.shed" >= 1);
      Client.close c;
      Store.close store)

(* A provider's re-upload retires every join over its old relation.  The
   recipient's next execute must join the new inputs: on a durable
   server in a fresh session (the store's cached result), after the
   state directory is reopened (replay), and on an in-memory server in
   the recipient's own session (the session cache). *)
let test_reupload_supersedes_results () =
  let a, b = workload () in
  let a2, _ = W.equijoin_pair (Rng.create 23) ~na:12 ~nb:18 ~matches:6 ~max_multiplicity:2 in
  let oracle rels =
    match Chaos.oracle service_config ~contract (List.map (fun r -> (schema, r)) rels) with
    | Ok e -> e
    | Error e -> Alcotest.fail e
  in
  let before = oracle [ a; b ] and after = oracle [ a2; b ] in
  Alcotest.(check bool) "the re-upload changes the answer" false (before = after);
  let verdict what ~expected delivered =
    Alcotest.(check string) what "correct"
      (Chaos.outcome_to_string (Chaos.judge ~expected (Result.map snd delivered)))
  in
  let reupload server =
    (* a fresh handshake exponent: the replay guard remembers alice's first *)
    let c = loop_client ~config:no_sleep server in
    (match
       Client.submit_relation c ~rng:(Rng.create 23) ~id:"alice" ~mac_key ~contract ~schema a2
     with
    | Ok () -> ()
    | Error e -> Alcotest.fail e);
    Client.close c
  in
  let join server seed =
    let c = loop_client ~config:no_sleep server in
    let r =
      Client.fetch_result c ~rng:(Rng.create seed) ~id:"carol" ~mac_key ~contract service_config
    in
    Client.close c;
    r
  in
  let durable ~reopen =
    with_dir (fun dir ->
        let store1, _ = opened (Store.open_dir ~mac_key dir) in
        let server1 = Reactor.create (Server.create ~mac_key ~seed:5 ~store:store1 ()) in
        submit_over server1 "alice" a;
        submit_over server1 "bob" b;
        verdict "first join" ~expected:before (join server1 99);
        reupload server1;
        if reopen then begin
          Store.close store1;
          let store2, _ = opened (Store.open_dir ~mac_key dir) in
          let server2 = Reactor.create (Server.create ~mac_key ~seed:6 ~store:store2 ()) in
          verdict "after reopening the state directory" ~expected:after (join server2 100);
          Store.close store2
        end
        else begin
          verdict "durable server, fresh session" ~expected:after (join server1 100);
          Store.close store1
        end)
  in
  durable ~reopen:false;
  durable ~reopen:true;
  let server = Reactor.create (Server.create ~mac_key ~seed:5 ()) in
  submit_over server "alice" a;
  submit_over server "bob" b;
  let c = loop_client ~config:no_sleep server in
  verdict "first join" ~expected:before
    (Client.fetch_result c ~rng:(Rng.create 99) ~id:"carol" ~mac_key ~contract service_config);
  reupload server;
  let again =
    Result.bind (Client.execute c service_config) (fun _ -> Client.fetch c)
  in
  Client.close c;
  verdict "in memory, the recipient's own session" ~expected:after again

(* --- client decorrelated jitter ----------------------------------------- *)

let collect_sleeps seed =
  let server = Reactor.create (Server.create ~mac_key ()) in
  let sleeps = ref [] in
  let config =
    { Client.default_config with
      recv_timeout = 0.01;
      max_retries = 3;
      backoff_seed = seed;
      sleep = (fun d -> sleeps := d :: !sleeps);
    }
  in
  let faults = inj "drop@dir=to_client,count=100" in
  let c = loop_client ~config ~faults server in
  (match Client.attest c with
  | Ok () -> Alcotest.fail "attest succeeded with every reply dropped"
  | Error _ -> ());
  Client.close c;
  List.rev !sleeps

let test_decorrelated_jitter () =
  let s1 = collect_sleeps 42 in
  Alcotest.(check int) "one sleep per retry" 3 (List.length s1);
  List.iter
    (fun d ->
      Alcotest.(check bool)
        (Printf.sprintf "sleep %g within [base, cap]" d)
        true
        (d >= Client.default_config.Client.backoff_base
        && d <= Client.default_config.Client.backoff_cap))
    s1;
  Alcotest.(check (list (float 1e-12))) "same seed, same schedule" s1 (collect_sleeps 42);
  Alcotest.(check bool) "different seed, different schedule" true (s1 <> collect_sleeps 43);
  (* Entropy mode still respects the envelope. *)
  List.iter
    (fun d ->
      Alcotest.(check bool) "entropy sleep within envelope" true
        (d >= Client.default_config.Client.backoff_base
        && d <= Client.default_config.Client.backoff_cap))
    (collect_sleeps 0)

let () =
  Alcotest.run "store"
    [ ( "record",
        [ Alcotest.test_case "roundtrip, pinned" `Quick test_record_codec;
          test_record_decoder_total;
        ] );
      ( "journal",
        [ Alcotest.test_case "crc32 known answers" `Quick test_crc_kat;
          Alcotest.test_case "append/read roundtrip" `Quick test_journal_roundtrip;
          Alcotest.test_case "write_atomic roundtrip" `Quick test_write_atomic_roundtrip;
          test_fuzz_truncation;
          test_fuzz_bitflip;
        ] );
      ( "store",
        [ test_fuzz_dup_tail;
          Alcotest.test_case "recover twice = recover once" `Quick
            test_recover_twice_equals_once;
          Alcotest.test_case "full device seals read-only" `Quick test_enospc_seals_readonly;
          Alcotest.test_case "nvram is monotonic" `Quick test_nvram_monotonic;
          Alcotest.test_case "forged nvram rollback refused" `Quick
            test_forged_nvram_rollback_refused;
          Alcotest.test_case "snapshot epoch rollback refused" `Quick
            test_epoch_rollback_refused;
          Alcotest.test_case "stale journal generation discarded" `Quick
            test_stale_journal_generation_discarded;
          Alcotest.test_case "compaction roundtrip" `Quick test_compaction_roundtrip;
          Alcotest.test_case "wrong key leaks nothing" `Quick test_wrong_key_refused;
        ] );
      ( "restart recovery",
        [ Alcotest.test_case "resume from durable checkpoint" `Quick
            test_durable_resume_across_servers;
          Alcotest.test_case "durable result cache re-seals" `Quick
            test_durable_result_across_servers;
          Alcotest.test_case "doctored checkpoint quarantined" `Quick
            test_doctored_checkpoint_quarantined;
          Alcotest.test_case "shared-seed shard checkpoint quarantined" `Quick
            test_shared_seed_checkpoint_quarantined;
          Alcotest.test_case "sealed store sheds uploads" `Quick test_sealed_store_sheds;
          Alcotest.test_case "re-upload supersedes cached joins" `Quick
            test_reupload_supersedes_results;
        ] );
      ( "client backoff",
        [ Alcotest.test_case "decorrelated jitter" `Quick test_decorrelated_jitter ] );
    ]
