(* Oblivious building blocks: bitonic networks, coprocessor-driven sort,
   the buffered decoy filter of §5.2.2, and the oblivious shuffle. *)

module Bitonic = Ppj_oblivious.Bitonic
module Oddeven = Ppj_oblivious.Oddeven
module Sort = Ppj_oblivious.Sort
module Filter = Ppj_oblivious.Filter
module Shuffle = Ppj_oblivious.Shuffle
module Trace = Ppj_scpu.Trace
module Host = Ppj_scpu.Host
module Co = Ppj_scpu.Coprocessor
module Decoy = Ppj_relation.Decoy

let qtest name ?(count = 100) arb prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count arb prop)

(* --- Bitonic network --- *)

let test_next_pow2 () =
  List.iter
    (fun (n, want) -> Alcotest.(check int) (string_of_int n) want (Bitonic.next_pow2 n))
    [ (0, 1); (1, 1); (2, 2); (3, 4); (4, 4); (5, 8); (1000, 1024) ]

let test_schedule_requires_pow2 () =
  Alcotest.check_raises "n=6" (Invalid_argument "Bitonic.schedule: length must be a power of two")
    (fun () -> ignore (Bitonic.schedule 6))

let test_counts_match_formula () =
  List.iter
    (fun n ->
      let lg = int_of_float (Float.round (log (float_of_int n) /. log 2.)) in
      Alcotest.(check int)
        (Printf.sprintf "comparators n=%d" n)
        (n / 2 * (lg * (lg + 1) / 2))
        (Array.length (Bitonic.schedule n));
      Alcotest.(check int)
        (Printf.sprintf "count fn n=%d" n)
        (Array.length (Bitonic.schedule n))
        (Bitonic.comparator_count n))
    [ 2; 4; 8; 16; 64; 256 ]

let prop_bitonic_sorts =
  qtest "network sorts any array" ~count:300
    QCheck.(pair (int_range 0 6) (list_of_size (QCheck.Gen.return 0) QCheck.unit))
    (fun (logn, _) ->
      let n = 1 lsl logn in
      let st = Random.State.make [| logn; 99 |] in
      let a = Array.init n (fun _ -> Random.State.int st 50) in
      let want = Array.copy a in
      Array.sort compare want;
      Bitonic.sort_in_place compare a;
      a = want)

let prop_bitonic_sorts_adversarial =
  qtest "network sorts duplicates and reverse runs" QCheck.(int_range 0 7) (fun logn ->
      let n = 1 lsl logn in
      let a = Array.init n (fun i -> (n - i) mod 3) in
      let want = Array.copy a in
      Array.sort compare want;
      Bitonic.sort_in_place compare a;
      a = want)

let test_schedule_data_independent () =
  (* The same (n) must always yield the identical comparator list. *)
  Alcotest.(check bool) "identical schedules" true (Bitonic.schedule 64 = Bitonic.schedule 64)

let test_schedule_memoized () =
  (* Regression: schedules used to be rebuilt on every sort call —
     O(n log^2 n) allocation on the hot path.  Warm each size once, then
     assert repeat requests hit the cache. *)
  ignore (Bitonic.schedule 512);
  ignore (Oddeven.schedule 512);
  let bb = Bitonic.schedule_builds () and ob = Oddeven.schedule_builds () in
  for _ = 1 to 5 do
    ignore (Bitonic.schedule 512);
    ignore (Oddeven.schedule 512);
    ignore (Bitonic.comparator_count 512);
    ignore (Oddeven.comparator_count 512)
  done;
  Alcotest.(check int) "bitonic: no rebuild" bb (Bitonic.schedule_builds ());
  Alcotest.(check int) "odd-even: no rebuild" ob (Oddeven.schedule_builds ());
  (* A genuinely new size is still a (single) cache miss. *)
  ignore (Bitonic.schedule 2048);
  ignore (Bitonic.schedule 2048);
  Alcotest.(check int) "one miss for a new size" (bb + 1) (Bitonic.schedule_builds ())

(* --- 0-1 principle (Knuth, TAOCP vol. 3, Thm. Z) ---

   A comparator network sorts every input iff it sorts every 0/1 input.
   Exhausting all 2^n binary vectors for n up to 16 is therefore a
   *complete* correctness proof for those widths — stronger than any
   amount of random testing, and cheap because the networks are data
   independent (65536 vectors x 63 comparators at n = 16). *)

let exhaustive_01 name sort_in_place =
  let check_n n =
    for bits = 0 to (1 lsl n) - 1 do
      let a = Array.init n (fun i -> (bits lsr i) land 1) in
      let ones = Array.fold_left ( + ) 0 a in
      sort_in_place compare a;
      (* A sorted 0/1 vector is (n - ones) zeros then (ones) ones. *)
      Array.iteri
        (fun i v ->
          let want = if i < n - ones then 0 else 1 in
          if v <> want then
            Alcotest.failf "%s n=%d input=%#x: position %d is %d, want %d" name n bits i v
              want)
        a
    done
  in
  fun () -> List.iter check_n [ 2; 4; 8; 16 ]

let test_bitonic_01_principle = exhaustive_01 "bitonic" Bitonic.sort_in_place
let test_oddeven_01_principle = exhaustive_01 "odd-even" Oddeven.sort_in_place

(* Exhaustive enumeration stops at n = 16; push the same 0-1 argument to
   network widths up to 1024 with random vectors, including the padded
   non-power-of-two case the algorithms actually hit: n real 0/1 entries
   followed by next_pow2(n) - n pad slots (value 2, ordered last exactly
   like sort_padded's sentinels). *)
let random_01_padded name sort_in_place =
  qtest (name ^ " 0-1 vectors to n=1024, padded") ~count:60
    QCheck.(pair (int_range 1 1024) (int_range 0 10_000))
    (fun (n, seed) ->
      let p = Bitonic.next_pow2 n in
      let st = Random.State.make [| n; seed |] in
      let a = Array.init p (fun i -> if i < n then Random.State.int st 2 else 2) in
      let ones = Array.fold_left (fun acc v -> if v = 1 then acc + 1 else acc) 0 a in
      sort_in_place compare a;
      let want i = if i < n - ones then 0 else if i < n then 1 else 2 in
      let ok = ref true in
      Array.iteri (fun i v -> if v <> want i then ok := false) a;
      !ok)

let prop_bitonic_01_random = random_01_padded "bitonic" Bitonic.sort_in_place
let prop_oddeven_01_random = random_01_padded "odd-even" Oddeven.sort_in_place

(* --- Odd-even merge network (ablation alternative) --- *)

let prop_oddeven_sorts =
  qtest "odd-even network sorts any array" ~count:300 QCheck.(int_range 0 7) (fun logn ->
      let n = 1 lsl logn in
      let st = Random.State.make [| logn; 55 |] in
      let a = Array.init n (fun _ -> Random.State.int st 50) in
      let want = Array.copy a in
      Array.sort compare want;
      Oddeven.sort_in_place compare a;
      a = want)

let test_oddeven_cheaper_than_bitonic () =
  (* The ablation's point: strictly fewer comparators for every n >= 4. *)
  List.iter
    (fun n ->
      Alcotest.(check bool)
        (Printf.sprintf "n=%d" n)
        true
        (Oddeven.comparator_count n < Bitonic.comparator_count n))
    [ 4; 8; 16; 64; 256; 1024 ]

let test_oddeven_known_counts () =
  (* Classic values: n=4 -> 5 comparators, n=8 -> 19, n=16 -> 63. *)
  List.iter
    (fun (n, want) -> Alcotest.(check int) (string_of_int n) want (Oddeven.comparator_count n))
    [ (2, 1); (4, 5); (8, 19); (16, 63) ]

(* --- Oblivious sort over a host region --- *)

let setup_region values ~pad =
  let host = Host.create () in
  let co = Co.create ~host ~m:8 ~seed:3 () in
  let n = Array.length values in
  let size = if pad then Bitonic.next_pow2 n else n in
  let (_ : Host.t) = Host.define_region host Trace.Scratch ~size in
  Array.iteri (fun i v -> Co.put co Trace.Scratch i v) values;
  (host, co, n)

let read_back co n = Array.init n (fun i -> Co.get co Trace.Scratch i)
let read_back_fwd = read_back

let test_sort_with_oddeven_network () =
  let values = [| "d"; "a"; "c"; "b" |] in
  let _, co, n = setup_region values ~pad:false in
  Sort.sort ~network:Sort.Odd_even co Trace.Scratch ~n ~compare:String.compare;
  Alcotest.(check (array string)) "sorted" [| "a"; "b"; "c"; "d" |] (read_back_fwd co n)

let test_sort_region () =
  let values = [| "d"; "a"; "c"; "b" |] in
  let _, co, n = setup_region values ~pad:false in
  Sort.sort co Trace.Scratch ~n ~compare:String.compare;
  Alcotest.(check (array string)) "sorted" [| "a"; "b"; "c"; "d" |] (read_back co n)

let test_sort_padded_region () =
  let values = [| "eee"; "aaa"; "ddd"; "ccc"; "bbb" |] in
  let _, co, n = setup_region values ~pad:true in
  Sort.sort_padded co Trace.Scratch ~n ~width:3 ~compare:String.compare;
  Alcotest.(check (array string)) "first n sorted"
    [| "aaa"; "bbb"; "ccc"; "ddd"; "eee" |]
    (read_back co n)

let test_sort_padded_gauge () =
  (* sort_padded surfaces its power-of-two overhead: 5 -> 8 slots means
     3 pad writes on the gauge (and at least that on the counter). *)
  let values = [| "eee"; "aaa"; "ddd"; "ccc"; "bbb" |] in
  let _, co, n = setup_region values ~pad:true in
  Sort.sort_padded co Trace.Scratch ~n ~width:3 ~compare:String.compare;
  let snap = Ppj_obs.Registry.snapshot Ppj_obs.Registry.default in
  (match
     Ppj_obs.Snapshot.find
       ~labels:[ ("region", Trace.region_name Trace.Scratch) ]
       snap "oblivious.sort.pad_slots"
   with
  | Some { Ppj_obs.Snapshot.value = Ppj_obs.Snapshot.Gauge v; _ } ->
      Alcotest.(check (float 0.)) "pad slots gauge" 3. v
  | _ -> Alcotest.fail "oblivious.sort.pad_slots gauge missing");
  match Ppj_obs.Snapshot.find snap "oblivious.sort.pad_slots_total" with
  | Some { Ppj_obs.Snapshot.value = Ppj_obs.Snapshot.Counter c; _ } ->
      Alcotest.(check bool) "cumulative counter" true (c >= 3)
  | _ -> Alcotest.fail "oblivious.sort.pad_slots_total counter missing"

let test_sort_trace_data_independent () =
  (* Definition 1 for the sort primitive: same length, any data, same
     trace. *)
  let run values =
    let _, co, n = setup_region values ~pad:false in
    let before = Co.transfers co in
    Sort.sort co Trace.Scratch ~n ~compare:String.compare;
    (Co.trace co, Co.transfers co - before)
  in
  let t1, c1 = run [| "d"; "a"; "c"; "b" |] in
  let t2, c2 = run [| "a"; "a"; "a"; "a" |] in
  Alcotest.(check bool) "identical traces" true (Trace.equal t1 t2);
  Alcotest.(check int) "4 transfers per comparator" (4 * Bitonic.comparator_count 4) c1;
  Alcotest.(check int) "same cost" c1 c2

let test_sentinels_sort_last () =
  let w = 3 in
  let values = [| Sort.sentinel ~width:w; "bbb"; Sort.sentinel ~width:w; "aaa" |] in
  let _, co, _ = setup_region values ~pad:false in
  Sort.sort co Trace.Scratch ~n:4 ~compare:String.compare;
  let out = read_back co 4 in
  Alcotest.(check (array string)) "reals first"
    [| "aaa"; "bbb"; Sort.sentinel ~width:w; Sort.sentinel ~width:w |]
    out

let test_is_sentinel () =
  Alcotest.(check bool) "sentinel" true (Sort.is_sentinel (Sort.sentinel ~width:5));
  Alcotest.(check bool) "not sentinel" false (Sort.is_sentinel "hello")

(* The word-at-a-time test against its definition (non-empty, every
   byte 0xFF): the empty string, all-0xFF strings of every length 1-70,
   and each of those with one byte changed at each position. *)
let test_is_sentinel_definition () =
  let defined s = s <> "" && String.for_all (Char.equal '\xFF') s in
  let agrees s =
    Alcotest.(check bool) (Printf.sprintf "%S" s) (defined s) (Sort.is_sentinel s)
  in
  agrees "";
  for len = 1 to 70 do
    let s = Sort.sentinel ~width:len in
    agrees s;
    for i = 0 to len - 1 do
      List.iter
        (fun c -> agrees (String.mapi (fun j x -> if j = i then c else x) s))
        [ '\x00'; '\x7F'; '\xFE' ]
    done
  done

(* --- Buffered decoy filter --- *)

let filter_case ~src_len ~reals ~delta () =
  let width = 9 in
  let host = Host.create () in
  let co = Co.create ~host ~m:8 ~seed:7 () in
  let (_ : Host.t) = Host.define_region host Trace.Output ~size:src_len in
  (* Scatter [reals] real oTuples among decoys. *)
  let st = Random.State.make [| src_len; reals |] in
  let positions = Array.init src_len Fun.id in
  for i = src_len - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = positions.(i) in
    positions.(i) <- positions.(j);
    positions.(j) <- t
  done;
  let real_set = Array.sub positions 0 reals in
  Array.iteri
    (fun _ _ -> ())
    positions;
  for i = 0 to src_len - 1 do
    let is_real = Array.exists (( = ) i) real_set in
    Co.put co Trace.Output i
      (if is_real then Decoy.real (Printf.sprintf "payl%04d" i) else Decoy.decoy ~payload:(width - 1))
  done;
  let buffer =
    Filter.run co ~src:Trace.Output ~src_len ~mu:reals ?delta
      ~is_real:(fun o -> not (Decoy.is_decoy o))
      ~width ()
  in
  let kept = List.init reals (fun i -> Co.get co buffer i) in
  Alcotest.(check int) "all reals kept" reals
    (List.length (List.filter (fun o -> not (Decoy.is_decoy o)) kept));
  (* and they are exactly the planted ones *)
  let planted =
    Array.to_list real_set |> List.map (fun i -> Printf.sprintf "payl%04d" i) |> List.sort compare
  in
  let got = List.map Decoy.payload kept |> List.sort compare in
  Alcotest.(check (list string)) "payloads" planted got

let test_filter_small = filter_case ~src_len:40 ~reals:6 ~delta:None
let test_filter_delta1 = filter_case ~src_len:24 ~reals:5 ~delta:(Some 1)
let test_filter_large_delta = filter_case ~src_len:24 ~reals:5 ~delta:(Some 64)
let test_filter_all_real = filter_case ~src_len:10 ~reals:10 ~delta:None
let test_filter_one_real = filter_case ~src_len:33 ~reals:1 ~delta:(Some 3)

let test_filter_cost_formula () =
  let c = Filter.comparisons ~omega:1000 ~mu:50 ~delta:25 in
  let expect = (1000. -. 50.) /. 25. *. (75. /. 4.) *. ((log 75. /. log 2.) ** 2.) in
  Alcotest.(check (float 1e-6)) "C formula" expect c;
  Alcotest.(check (float 1e-6)) "transfers = 4C" (4. *. c)
    (Filter.transfers ~omega:1000 ~mu:50 ~delta:25)

let test_filter_optimal_delta () =
  (* Δ* is the argmin of the transfer count (Eqn. 5.1); the paper solves
     it approximately via the fixed point Δ = μ·log2(μ+Δ)/2.  Check local
     optimality and that the argmin's cost is no worse than the paper's
     fixed-point solution. *)
  let mu = 6400 in
  let omega0 = 200_000 in
  let d = Filter.optimal_delta ~mu in
  let cost delta = Filter.transfers ~omega:omega0 ~mu ~delta in
  List.iter
    (fun other ->
      Alcotest.(check bool)
        (Printf.sprintf "argmin beats delta=%d" other)
        true
        (cost d <= cost other +. 1e-6))
    [ 1; d / 2; d - 7; d + 7; 2 * d; mu; 10 * mu ];
  let fp = ref 1000. in
  for _ = 1 to 60 do
    fp := float_of_int mu *. (log (float_of_int mu +. !fp) /. log 2.) /. 2.
  done;
  Alcotest.(check bool) "no worse than the paper's fixed point" true
    (cost d <= cost (int_of_float !fp) +. 1e-6);
  (* and it beats naive whole-list sorting for L >> S *)
  let omega = 640_000 in
  let whole = float_of_int omega *. ((log (float_of_int omega) /. log 2.) ** 2.) in
  Alcotest.(check bool) "beats single big sort" true
    (Filter.transfers ~omega ~mu ~delta:d < whole)

let test_filter_trace_data_independent () =
  let run seed =
    let host = Host.create () in
    let co = Co.create ~host ~m:8 ~seed:11 () in
    let (_ : Host.t) = Host.define_region host Trace.Output ~size:20 in
    let st = Random.State.make [| seed |] in
    let reals = 4 in
    (* different *placement* of the 4 reals each run *)
    let chosen = Array.init 20 (fun i -> i) in
    for i = 19 downto 1 do
      let j = Random.State.int st (i + 1) in
      let t = chosen.(i) in
      chosen.(i) <- chosen.(j);
      chosen.(j) <- t
    done;
    for i = 0 to 19 do
      let is_real = Array.exists (( = ) i) (Array.sub chosen 0 reals) in
      Co.put co Trace.Output i (if is_real then Decoy.real "12345678" else Decoy.decoy ~payload:8)
    done;
    ignore
      (Filter.run co ~src:Trace.Output ~src_len:20 ~mu:reals ~delta:3
         ~is_real:(fun o -> not (Decoy.is_decoy o))
         ~width:9 ());
    Co.trace co
  in
  Alcotest.(check bool) "placement-independent trace" true (Trace.equal (run 1) (run 2))

(* --- Square-root ORAM --- *)

module Oram = Ppj_oblivious.Oram

let oram_setup ?(n = 20) () =
  let host = Host.create () in
  let co = Co.create ~host ~m:8 ~seed:3 () in
  let values = Array.init n (fun i -> Printf.sprintf "value-%04d" i) in
  (co, values, Oram.create co ~values)

let prop_oram_correct =
  qtest "oram reads return the right values across epochs" ~count:20
    QCheck.(pair (int_range 2 25) (int_range 0 1000))
    (fun (n, seed) ->
      let co, values, oram = oram_setup ~n () in
      ignore co;
      let st = Random.State.make [| seed |] in
      let ok = ref true in
      for _ = 1 to 4 * n do
        let i = Random.State.int st n in
        if not (String.equal (Oram.read oram i) values.(i)) then ok := false
      done;
      !ok && Oram.epochs oram > 0)

let test_oram_prp_bijective () =
  let _, _, oram = oram_setup ~n:30 () in
  let m = Oram.n oram + Oram.shelter_size oram in
  List.iter
    (fun epoch ->
      let seen = Array.make m false in
      for x = 0 to m - 1 do
        seen.(Oram.prp oram ~epoch x) <- true
      done;
      if not (Array.for_all Fun.id seen) then
        Alcotest.failf "epoch %d prp is not a bijection" epoch)
    [ 0; 1; 2; 7 ]

let test_oram_store_visited_once_per_epoch () =
  (* The Goldreich-Ostrovsky invariant: within an epoch no store position
     is read twice, even when the logical sequence repeats one index. *)
  let co, _, oram = oram_setup ~n:16 () in
  let shelter = Oram.shelter_size oram in
  let before = Trace.length (Co.trace co) in
  for _ = 1 to shelter do
    ignore (Oram.read oram 5)
  done;
  let entries = Trace.to_list (Co.trace co) in
  let epoch_reads =
    List.filteri (fun i _ -> i >= before) entries
    |> List.filter (fun (e : Trace.entry) ->
           e.Trace.op = Trace.Read && e.Trace.region = Trace.Oram_store)
    (* the re-permutation at epoch end also reads the store; keep only the
       per-access single visits, which come in shelter+1-read groups *)
  in
  let positions =
    List.filteri (fun i _ -> i < shelter) epoch_reads
    |> List.map (fun (e : Trace.entry) -> e.Trace.index)
  in
  Alcotest.(check int) "distinct positions" shelter
    (List.length (List.sort_uniq compare positions))

let test_oram_fixed_access_shape () =
  (* Every read inside an epoch costs exactly shelter-scan + 1 store read
     + 1 shelter write, independent of the index or hit/miss. *)
  let co, _, oram = oram_setup ~n:16 () in
  let shelter = Oram.shelter_size oram in
  let cost i =
    let before = Trace.length (Co.trace co) in
    ignore (Oram.read oram i);
    Trace.length (Co.trace co) - before
  in
  (* Stay inside one epoch (shelter - 1 reads after a fresh epoch). *)
  let c1 = cost 3 in
  let c2 = cost 3 (* shelter hit *) in
  ignore shelter;
  Alcotest.(check int) "per-read transfers" (Oram.shelter_size oram + 2) c1;
  Alcotest.(check int) "hit and miss identical" c1 c2

let test_oram_bad_index () =
  let _, _, oram = oram_setup ~n:8 () in
  Alcotest.check_raises "out of range" (Invalid_argument "Oram.read: index out of range")
    (fun () -> ignore (Oram.read oram 8))

(* --- Shuffle --- *)

let test_shuffle_permutes () =
  let values = Array.init 20 (fun i -> Printf.sprintf "v%03d" i) in
  let host = Host.create () in
  let co = Co.create ~host ~m:8 ~seed:13 () in
  let (_ : Host.t) =
    Host.define_region host Trace.Scratch ~size:(Bitonic.next_pow2 20)
  in
  Array.iteri (fun i v -> Co.put co Trace.Scratch i v) values;
  Shuffle.shuffle co Trace.Scratch ~n:20 ~width:4;
  let out = Array.init 20 (fun i -> Co.get co Trace.Scratch i) in
  let sorted = Array.copy out in
  Array.sort compare sorted;
  Alcotest.(check (array string)) "permutation" values sorted

let test_shuffle_changes_order () =
  let values = Array.init 64 (fun i -> Printf.sprintf "v%03d" i) in
  let host = Host.create () in
  let co = Co.create ~host ~m:8 ~seed:17 () in
  let (_ : Host.t) = Host.define_region host Trace.Scratch ~size:64 in
  Array.iteri (fun i v -> Co.put co Trace.Scratch i v) values;
  Shuffle.shuffle co Trace.Scratch ~n:64 ~width:4;
  let out = Array.init 64 (fun i -> Co.get co Trace.Scratch i) in
  Alcotest.(check bool) "not identity" true (out <> values)

let () =
  Alcotest.run "oblivious"
    [ ( "bitonic",
        [ Alcotest.test_case "next_pow2" `Quick test_next_pow2;
          Alcotest.test_case "pow2 required" `Quick test_schedule_requires_pow2;
          Alcotest.test_case "exact counts" `Quick test_counts_match_formula;
          Alcotest.test_case "schedule deterministic" `Quick test_schedule_data_independent;
          Alcotest.test_case "schedule memoized" `Quick test_schedule_memoized;
          Alcotest.test_case "0-1 principle, exhaustive to n=16" `Quick test_bitonic_01_principle;
          prop_bitonic_01_random;
          prop_oddeven_01_random;
          prop_bitonic_sorts;
          prop_bitonic_sorts_adversarial
        ] );
      ( "oddeven",
        [ Alcotest.test_case "fewer comparators than bitonic" `Quick test_oddeven_cheaper_than_bitonic;
          Alcotest.test_case "known comparator counts" `Quick test_oddeven_known_counts;
          Alcotest.test_case "region sort via odd-even" `Quick test_sort_with_oddeven_network;
          Alcotest.test_case "0-1 principle, exhaustive to n=16" `Quick test_oddeven_01_principle;
          prop_oddeven_sorts
        ] );
      ( "sort",
        [ Alcotest.test_case "sorts a region" `Quick test_sort_region;
          Alcotest.test_case "padded sort" `Quick test_sort_padded_region;
          Alcotest.test_case "pad overhead gauge" `Quick test_sort_padded_gauge;
          Alcotest.test_case "trace data-independence + cost" `Quick test_sort_trace_data_independent;
          Alcotest.test_case "sentinels last" `Quick test_sentinels_sort_last;
          Alcotest.test_case "is_sentinel" `Quick test_is_sentinel;
          Alcotest.test_case "is_sentinel matches its definition" `Quick
            test_is_sentinel_definition
        ] );
      ( "filter",
        [ Alcotest.test_case "keeps reals (defaults)" `Quick test_filter_small;
          Alcotest.test_case "delta = 1" `Quick test_filter_delta1;
          Alcotest.test_case "delta > source" `Quick test_filter_large_delta;
          Alcotest.test_case "all real" `Quick test_filter_all_real;
          Alcotest.test_case "single real" `Quick test_filter_one_real;
          Alcotest.test_case "cost formula" `Quick test_filter_cost_formula;
          Alcotest.test_case "optimal delta fixed point" `Quick test_filter_optimal_delta;
          Alcotest.test_case "trace data-independence" `Quick test_filter_trace_data_independent
        ] );
      ( "oram",
        [ Alcotest.test_case "prp bijective" `Quick test_oram_prp_bijective;
          Alcotest.test_case "store visited once per epoch" `Quick test_oram_store_visited_once_per_epoch;
          Alcotest.test_case "fixed access shape" `Quick test_oram_fixed_access_shape;
          Alcotest.test_case "bad index" `Quick test_oram_bad_index;
          prop_oram_correct
        ] );
      ( "shuffle",
        [ Alcotest.test_case "is a permutation" `Quick test_shuffle_permutes;
          Alcotest.test_case "changes order" `Quick test_shuffle_changes_order
        ] )
    ]
