(* Sharded multi-coprocessor joins (lib/shard): the oblivious merge
   network, the coordinator over both backends and over the wire, the
   multi-coprocessor model of §4.4.4 / §5.3.5 (run_local on the
   sequential backend: correctness at awkward p, speedup and transfer
   accounting), Definition 1/3 property tests for the slice runners,
   kill-one-shard chaos, and the load-imbalance metrics. *)

module Algorithm4 = Ppj_core.Algorithm4
module Algorithm5 = Ppj_core.Algorithm5
module Algorithm6 = Ppj_core.Algorithm6
module Algorithm8 = Ppj_core.Algorithm8
module Instance = Ppj_core.Instance
module Privacy = Ppj_core.Privacy
module Service = Ppj_core.Service
module Co = Ppj_scpu.Coprocessor
module Ch = Ppj_scpu.Channel
module W = Ppj_relation.Workload
module P = Ppj_relation.Predicate
module T = Ppj_relation.Tuple
module Value = Ppj_relation.Value
module Relation = Ppj_relation.Relation
module Schema = Ppj_relation.Schema
module Rng = Ppj_crypto.Rng
module Registry = Ppj_obs.Registry
module Counter = Ppj_obs.Counter
module Histogram = Ppj_obs.Histogram
module Server = Ppj_net.Server
module Reactor = Ppj_net.Reactor
module Transport = Ppj_net.Transport
module Client = Ppj_net.Client
module Wire = Ppj_net.Wire
module Merge = Ppj_shard.Merge
module Partitioner = Ppj_shard.Partitioner
module Shards = Ppj_shard.Shards
module Metrics = Ppj_shard.Metrics
module Coordinator = Ppj_shard.Coordinator
module Chaos = Ppj_net.Chaos
module Domains_compat = Ppj_shard.Domains_compat

let pred = P.equijoin2 "key" "key"
let tuple_set l = List.sort compare (List.map (fun t -> Format.asprintf "%a" T.pp t) l)

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.equal (String.sub s i n) sub || go (i + 1)) in
  n = 0 || go 0

let workload ?(seed = 11) () =
  let rng = Rng.create seed in
  W.equijoin_pair rng ~na:12 ~nb:18 ~matches:14 ~max_multiplicity:3

let oracle_of rels = Instance.oracle (Instance.create ~m:4 ~seed:1 ~predicate:pred rels)

(* --- merge ------------------------------------------------------------ *)

let test_merge_compacts_stable () =
  let streams = [ [ Some 1; None; Some 2 ]; []; [ None; Some 3 ] ] in
  let reals, stats = Merge.run ~pad:None ~is_real:Option.is_some streams in
  Alcotest.(check (list int)) "reals, shard order" [ 1; 2; 3 ] (List.filter_map Fun.id reals);
  (* 3 streams padded to max length 3 = 9 slots, network over 16 *)
  Alcotest.(check int) "slots" 9 stats.Merge.slots;
  Alcotest.(check bool) "comparators counted" true (stats.Merge.comparators > 0)

let test_merge_schedule_is_shape_only () =
  (* Two opposite distributions of 4 reals over 3 shards: identical
     slot and comparator counts — the schedule can't see the split. *)
  let d1 = [ [ Some 1; Some 2; Some 3; Some 4 ]; [ None; None ]; [ None ] ] in
  let d2 = [ [ None; None; None; None ]; [ Some 9; Some 8 ]; [ Some 7 ] ] in
  let r1, s1 = Merge.run ~pad:None ~is_real:Option.is_some d1 in
  let r2, s2 = Merge.run ~pad:None ~is_real:Option.is_some d2 in
  Alcotest.(check bool) "same stats" true (s1 = s2);
  Alcotest.(check (list int)) "d1 reals" [ 1; 2; 3; 4 ] (List.filter_map Fun.id r1);
  Alcotest.(check (list int)) "d2 reals" [ 9; 8; 7 ] (List.filter_map Fun.id r2)

let test_merge_all_pads_and_empty () =
  let reals, stats = Merge.run ~pad:None ~is_real:Option.is_some [ [ None ]; [ None ] ] in
  Alcotest.(check int) "no reals" 0 (List.length reals);
  Alcotest.(check int) "two slots" 2 stats.Merge.slots;
  let reals, stats = Merge.run ~pad:None ~is_real:Option.is_some [ []; [] ] in
  Alcotest.(check int) "empty streams ok" 0 (List.length reals);
  Alcotest.(check int) "zero slots" 0 stats.Merge.slots

(* Any stream set: the reals come out in shard-then-stream order, and
   the network runs exactly a bitonic sort's comparators over the
   padded slots. *)
let test_merge_property () =
  let module Bitonic = Ppj_oblivious.Bitonic in
  let streams =
    QCheck.make
      ~print:QCheck.Print.(list (list (option int)))
      QCheck.Gen.(list_size (int_range 1 6) (list_size (int_range 0 8) (opt small_nat)))
  in
  let cell =
    QCheck.Test.make_cell ~count:500 ~name:"merge order and comparators" streams (fun streams ->
        let reals, stats = Merge.run ~pad:None ~is_real:Option.is_some streams in
        let longest = List.fold_left (fun m l -> max m (List.length l)) 0 streams in
        reals = List.filter Option.is_some (List.concat streams)
        && stats.Merge.slots = List.length streams * longest
        && stats.Merge.comparators
           = Bitonic.comparator_count (Bitonic.next_pow2 stats.Merge.slots))
  in
  QCheck.Test.check_cell_exn ~rand:(Random.State.make [| 45 |]) cell

(* Zipf-skewed keys: replicate slicing is shape-driven, so the load
   stays flat whatever the key histogram. *)
let zipf_pair seed =
  let rng = Rng.create seed in
  let a = W.zipf rng ~name:"a" ~n:20 ~key_domain:6 ~theta:1.2 in
  let b = W.zipf rng ~name:"b" ~n:15 ~key_domain:6 ~theta:1.2 in
  (a, b)

(* --- Definition 1/3 for the sharded slices (satellite) ---------------- *)

let runs_per_property = 20

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

(* The union of per-shard traces for one database: shard k runs its
   slice on a fresh coprocessor holding the full relations, exactly as
   a replicate shard server would.  The coprocessor seed is fixed —
   Definition 1 quantifies over the data only. *)
let shard_traces ~p run sh ~data_seed =
  let rng = Rng.create data_seed in
  let a, b =
    W.equijoin_pair rng ~na:sh.na ~nb:sh.nb ~matches:sh.matches ~max_multiplicity:sh.mult
  in
  let s = Instance.oracle_size (Instance.create ~m:3 ~seed:1234 ~predicate:pred [ a; b ]) in
  List.init p (fun k ->
      let inst = Instance.create ~m:3 ~seed:1234 ~predicate:pred [ a; b ] in
      run inst ~k ~s;
      Co.trace (Instance.co inst))

let sharded_indistinguishable ~p run sh =
  let runs = List.map (fun s -> shard_traces ~p run sh ~data_seed:s) [ sh.s1; sh.s2 ] in
  match Privacy.compare_sharded runs with
  | Privacy.Indistinguishable -> true
  | Privacy.Distinguishable _ -> false

let property_case ~qcheck_seed name run =
  let cell =
    QCheck.Test.make_cell ~count:runs_per_property ~name shape_arb (fun sh ->
        sharded_indistinguishable ~p:3 run sh)
  in
  Alcotest.test_case name `Quick (fun () ->
      QCheck.Test.check_cell_exn ~rand:(Random.State.make [| qcheck_seed |]) cell)

let sharded_properties =
  [ property_case ~qcheck_seed:41 "sharded algorithm 4" (fun inst ~k ~s ->
        ignore (Algorithm4.run_slice inst ~budget:(Public { s }) ~k ~p:3 () : int));
    property_case ~qcheck_seed:42 "sharded algorithm 5" (fun inst ~k ~s ->
        Algorithm5.run_slice inst ~k ~p:3 ~s);
    property_case ~qcheck_seed:43 "sharded algorithm 6" (fun inst ~k ~s ->
        Algorithm6.run_slice inst ~eps:1e-12 ~k ~p:3 ~s ~seed:(Algorithm6.shared_seed 1234));
    property_case ~qcheck_seed:44 "sharded algorithm 8" (fun inst ~k ~s:_ ->
        ignore (Algorithm8.run_slice inst ~k ~p:3 ~attr_a:"key" ~attr_b:"key" : Algorithm8.stats))
  ]

(* Deterministic pair: same shape, same S = 3, but the matches all live
   in shard 0's slice for [b_lo] and in shard 1's for [b_hi]. *)
let concentrated () =
  let schema = W.keyed_schema () in
  let mk name keys =
    Relation.make ~name schema
      (List.mapi (fun i k -> T.make schema [ Value.Int i; Value.Int k; Value.Str "" ]) keys)
  in
  let a = mk "a" [ 0; 1; 2; 3 ] in
  let b_lo = mk "b" [ 0; 0; 0; 9 ] in
  let b_hi = mk "b" [ 3; 3; 3; 9 ] in
  (a, b_lo, b_hi)

(* The two shards' coprocessors after running their Algorithm 4 slices,
   filtering with the slice's own match count ([leaky], the negative
   control) or with the public budget. *)
let concentrated_shards ~leaky b_choice =
  let a, b_lo, b_hi = concentrated () in
  let b = if b_choice = 0 then b_lo else b_hi in
  let s = Instance.oracle_size (Instance.create ~m:3 ~seed:1234 ~predicate:pred [ a; b ]) in
  let budget = if leaky then Algorithm4.Own_count else Algorithm4.Public { s } in
  List.init 2 (fun k ->
      let inst = Instance.create ~m:3 ~seed:1234 ~predicate:pred [ a; b ] in
      ignore (Algorithm4.run_slice inst ~budget ~k ~p:2 () : int);
      Instance.co inst)

let leaky_traces ?(leaky = true) b_choice =
  List.map Co.trace (concentrated_shards ~leaky b_choice)

let test_leaky_negative_control () =
  (* With mu = local s_k the shard-0 trace sees 3 matches vs 0: the
     verdict must name the leaking shard. *)
  match Privacy.compare_sharded [ leaky_traces 0; leaky_traces 1 ] with
  | Privacy.Indistinguishable -> Alcotest.fail "leaky slices escaped detection"
  | Privacy.Distinguishable { detail; _ } ->
      Alcotest.(check bool)
        (Printf.sprintf "names shard 0 (got %s)" detail)
        true
        (contains ~sub:"shard 0" detail)

let test_public_budget_heals_the_leak () =
  (* Same pair under the public min(slice, S) budget: indistinguishable —
     this is precisely what the promoted runners fix. *)
  match
    Privacy.compare_sharded [ leaky_traces ~leaky:false 0; leaky_traces ~leaky:false 1 ]
  with
  | Privacy.Indistinguishable -> ()
  | Privacy.Distinguishable d ->
      Alcotest.fail (Format.asprintf "%a" Privacy.pp_verdict (Privacy.Distinguishable d))

let test_shard_count_mismatch_distinguishable () =
  match Privacy.compare_sharded [ leaky_traces ~leaky:false 0; [ List.hd (leaky_traces ~leaky:false 1) ] ] with
  | Privacy.Distinguishable { detail; _ } ->
      Alcotest.(check bool) "counts named" true (contains ~sub:"shard counts differ" detail)
  | Privacy.Indistinguishable -> Alcotest.fail "differing arity slipped through"

(* --- coordinator, in-process backend ---------------------------------- *)

let local_config ?(p = 2) inner =
  { Coordinator.p; m = 4; seed = 5; inner; strategy = Partitioner.Replicate }

(* The sequential in-process backend: also the multi-coprocessor model
   of §4.4.4 / §5.3.5. *)
let local ?(m = 4) ~p inner rels =
  match
    Coordinator.run_local ~backend:Coordinator.Sequential
      { (local_config ~p inner) with Coordinator.m }
      ~predicate:pred rels
  with
  | Ok o -> o
  | Error e -> Alcotest.failf "p=%d: %s" p e

let sum = Array.fold_left ( + ) 0
let slowest = Array.fold_left max 0

let check_local_correct name inner ps () =
  let a, b = workload () in
  let want = tuple_set (oracle_of [ a; b ]) in
  List.iter
    (fun p ->
      Alcotest.(check (list string))
        (Printf.sprintf "%s p=%d = oracle" name p)
        want
        (tuple_set (local ~p inner [ a; b ]).Coordinator.results))
    ps

let test_local_replicate_alg4 = check_local_correct "alg4" Service.Alg4 [ 1; 2; 3; 4; 8 ]
let test_local_replicate_alg5 = check_local_correct "alg5" Service.Alg5 [ 1; 2; 3; 4; 8 ]

let test_local_replicate_alg6 =
  check_local_correct "alg6" (Service.Alg6 { eps = 1e-9 }) [ 1; 2; 3; 4 ]

(* At a loose eps a segment of a slice can hold more than m results:
   the slice then refuses.  Every run is the oracle's answer or that
   typed refusal, never a short answer. *)
let test_local_alg6_blemish_refused () =
  let refused = ref 0 in
  for seed = 1 to 40 do
    let rels =
      let a, b = W.equijoin_pair (Rng.create seed) ~na:8 ~nb:12 ~matches:10 ~max_multiplicity:3 in
      [ a; b ]
    in
    let want = tuple_set (oracle_of rels) in
    List.iter
      (fun p ->
        let config =
          { (local_config ~p (Service.Alg6 { eps = 0.1 })) with Coordinator.m = 2; seed }
        in
        match
          Coordinator.run_local ~backend:Coordinator.Sequential config ~predicate:pred rels
        with
        | Ok o ->
            Alcotest.(check (list string))
              (Printf.sprintf "seed %d p=%d = oracle" seed p)
              want (tuple_set o.Coordinator.results)
        | Error e ->
            Alcotest.(check bool) "typed refusal" true (contains ~sub:"Algorithm 6" e);
            incr refused)
      [ 1; 2; 4 ]
  done;
  Alcotest.(check bool) "some slice blemished" true (!refused > 0)

let test_local_replicate_alg8 =
  check_local_correct "alg8"
    (Service.Alg8 { attr_a = "key"; attr_b = "key" })
    [ 1; 2; 3; 4; 8 ]

let test_invalid_p_rejected () =
  List.iter
    (fun p ->
      match Coordinator.validate (local_config ~p Service.Alg4) with
      | Ok () -> Alcotest.failf "p=%d accepted" p
      | Error e -> Alcotest.(check bool) "names p" true (contains ~sub:"p must be positive" e))
    [ 0; -1 ]

let test_bad_inner_rejected () =
  let a, b = workload () in
  match Coordinator.run_local (local_config (Service.Alg1 { n = 3 })) ~predicate:pred [ a; b ] with
  | Ok _ -> Alcotest.fail "Alg1 inner accepted"
  | Error e -> Alcotest.(check bool) "typed" true (contains ~sub:"inner algorithm" e)

let test_domains_matches_sequential () =
  let a, b = workload () in
  let run backend =
    match
      Coordinator.run_local ~backend (local_config ~p:4 Service.Alg4) ~predicate:pred [ a; b ]
    with
    | Error e -> Alcotest.fail e
    | Ok o -> o
  in
  let seq = run Coordinator.Sequential in
  let dom = run Coordinator.Domains in
  Alcotest.(check (list string)) "same results" (tuple_set seq.Coordinator.results)
    (tuple_set dom.Coordinator.results);
  Alcotest.(check bool) "same per-shard transfers" true
    (seq.Coordinator.per_shard_transfers = dom.Coordinator.per_shard_transfers);
  Alcotest.(check string) "sequential backend reported" "sequential" seq.Coordinator.backend;
  let expect = if Domains_compat.available then "domains" else "sequential" in
  Alcotest.(check string) "domains backend reported" expect dom.Coordinator.backend

(* Regression for the Domains-backend data races: concurrent first-touch
   of a schedule size must build it exactly once with every caller
   handed the same published array (losers of the publish race adopt the
   winner's build), and registry counters hammered from parallel jobs
   must not lose increments.  On 4.14 Domains_compat degrades to a
   sequential map and these become plain memoization/accounting checks. *)
let test_parallel_schedule_cache () =
  let module Bitonic = Ppj_oblivious.Bitonic in
  let module Oddeven = Ppj_oblivious.Oddeven in
  let check_network name schedule builds n =
    let before = builds () in
    let results = Domains_compat.parallel_map (fun () -> schedule n) (Array.make 8 ()) in
    Alcotest.(check int) (name ^ ": built once") (before + 1) (builds ());
    Array.iter
      (fun s -> Alcotest.(check bool) (name ^ ": one shared array") true (s == results.(0)))
      results
  in
  (* 4096 is fresh: nothing else in this binary sorts a region that big. *)
  check_network "bitonic" Bitonic.schedule Bitonic.schedule_builds 4096;
  check_network "odd-even" Oddeven.schedule Oddeven.schedule_builds 4096

let test_parallel_registry_counters () =
  let registry = Registry.create () in
  let jobs = 8 and per_job = 1000 in
  let (_ : unit array) =
    Domains_compat.parallel_map
      (fun k ->
        for i = 1 to per_job do
          Counter.incr (Registry.counter registry "race.counter");
          Registry.set_gauge
            ~labels:[ ("job", string_of_int k) ]
            registry "race.gauge" (float_of_int i)
        done)
      (Array.init jobs (fun k -> k))
  in
  Alcotest.(check int) "no lost increments" (jobs * per_job)
    (Counter.value (Registry.counter registry "race.counter"))

(* A failing job must not leave later jobs running behind the raise:
   every spawned domain is joined first, then the lowest job's exception
   propagates.  On 4.14 the map is sequential, so job 0's exception
   simply arrives before job 1 starts. *)
let test_parallel_map_joins_before_raising () =
  let finished = Atomic.make 0 in
  let job k =
    match k with
    | 0 -> failwith "job 0"
    | 1 ->
        Unix.sleepf 0.05;
        Atomic.incr finished
    | _ ->
        Unix.sleepf 0.02;
        failwith "job 2"
  in
  match Domains_compat.parallel_map job [| 0; 1; 2 |] with
  | _ -> Alcotest.fail "job 0's exception was lost"
  | exception Failure msg ->
      Alcotest.(check string) "lowest job's exception" "job 0" msg;
      if Domains_compat.available then
        Alcotest.(check int) "job 1 joined before the raise" 1 (Atomic.get finished)

(* Worker domains outlive a call: job 1 of a second call runs on the
   domain that ran job 1 of the first (a domain's main thread id names
   it), not on the caller's.  On 4.14 every job runs on the caller. *)
let test_parallel_map_reuses_workers () =
  let where () = Domains_compat.parallel_map (fun _ -> Thread.id (Thread.self ())) [| 0; 1 |] in
  let first = where () in
  let second = where () in
  Alcotest.(check int) "job 1 on the same domain" first.(1) second.(1);
  Alcotest.(check int) "job 0 on the caller" (Thread.id (Thread.self ())) second.(0);
  if Domains_compat.available then
    Alcotest.(check bool) "job 1 off the caller" true (second.(1) <> second.(0))

(* A job that calls back into [parallel_map] would wait for the call it
   belongs to: it raises instead, from the caller's job and from a
   worker's.  The sequential 4.14 map cannot deadlock and just runs it. *)
let test_parallel_map_nested_call_raises () =
  let nested () = Array.length (Domains_compat.parallel_map Fun.id [| 1; 2 |]) in
  let calls =
    [ ("from job 0", fun k -> if k = 0 then nested () else 0);
      ("from job 1", fun k -> if k = 1 then nested () else 0)
    ]
  in
  List.iter
    (fun (name, job) ->
      match Domains_compat.parallel_map job [| 0; 1 |] with
      | _ -> if Domains_compat.available then Alcotest.failf "nested call %s returned" name
      | exception Invalid_argument _ ->
          if not Domains_compat.available then Alcotest.failf "nested call %s raised" name)
    calls;
  (* the pool is still usable after a refused nested call *)
  Alcotest.(check (array int)) "next call" [| 2; 3 |]
    (Domains_compat.parallel_map succ [| 1; 2 |])

(* Each slice counts its own padding on its own coprocessor, whichever
   domain runs it: Domains report what Sequential does, slice for
   slice, and a second run in the same process what the first did. *)
let test_domains_pad_gauge_per_shard () =
  let a, b = workload () in
  let p = 3 in
  let pads backend =
    match
      Coordinator.run_local ~backend (local_config ~p Service.Alg4) ~predicate:pred [ a; b ]
    with
    | Ok o -> o.Coordinator.per_shard_pad_slots
    | Error e -> Alcotest.fail e
  in
  let seq = pads Coordinator.Sequential in
  let first = pads Coordinator.Domains in
  Alcotest.(check int) "one count per slice" p (Array.length seq);
  Alcotest.(check bool) "slices pad" true (Array.for_all (fun n -> n > 0) seq);
  Alcotest.(check (array int)) "domains = sequential" seq first;
  Alcotest.(check (array int)) "second run = first" first (pads Coordinator.Domains)

(* Two slices of one job, each run as a shard server runs it.  Every
   Algorithm 4 slice writes a full-length Output stream, decoys
   included: under one key and nonce stream, slot j would hold the same
   ciphertext on both hosts wherever both slices hold a decoy. *)
let test_slices_seal_under_distinct_keys () =
  List.iter
    (fun data_seed ->
      let rng = Rng.create data_seed in
      let a, b = W.equijoin_pair rng ~na:16 ~nb:24 ~matches:8 ~max_multiplicity:2 in
      let output k =
        let inst, _ =
          Service.execute_join
            { Service.m = 4;
              seed = 7;
              algorithm = Service.Sharded { k; p = 2; inner = Service.Alg4 };
            }
            ~predicate:pred [ a; b ]
        in
        let host = Co.host (Instance.co inst) in
        List.init
          (Ppj_scpu.Host.region_size host Ppj_scpu.Trace.Output)
          (Ppj_scpu.Host.raw_get host Ppj_scpu.Trace.Output)
      in
      let o0 = output 0 and o1 = output 1 in
      Alcotest.(check (pair int int)) "a full Output stream per slice" (192, 192)
        (List.length o0, List.length o1);
      Alcotest.(check int)
        (Printf.sprintf "data seed %d: Output ciphertexts on both slices" data_seed)
        0
        (List.length (List.filter (fun c -> List.mem c o1) o0)))
    [ 1; 2; 3 ]

let test_local_speedup_accounting () =
  let a, b = workload () in
  let o = local ~p:4 Service.Alg4 [ a; b ] in
  let t = o.Coordinator.per_shard_transfers in
  Alcotest.(check (float 1e-6)) "sum = speedup * max" (float_of_int (sum t))
    (o.Coordinator.speedup *. float_of_int (slowest t));
  Alcotest.(check bool) "p=4 speeds up" true (o.Coordinator.speedup > 1.5);
  Alcotest.(check bool) "merge slots cover shards" true (o.Coordinator.merge.Merge.slots > 0)

let test_merge_comparators_exact () =
  (* The merge's compare-exchanges against Cost.merge_exact: p slices of
     the l-pair product, each padded to min(ceil(l/p), S) oTuples. *)
  let a, b = workload () in
  let l = Relation.cardinality a * Relation.cardinality b in
  let s = List.length (oracle_of [ a; b ]) in
  List.iter
    (fun p ->
      let o = local ~p Service.Alg4 [ a; b ] in
      Alcotest.(check int) (Printf.sprintf "p=%d" p)
        (Ppj_core.Cost.merge_exact ~p ~l ~s)
        o.Coordinator.merge.Merge.comparators)
    [ 1; 2; 3; 4; 5 ]

(* --- the multi-coprocessor model (§4.4.4, §5.3.5) ----------------------- *)

let slice_algorithms =
  [ ("alg4", Service.Alg4); ("alg5", Service.Alg5); ("alg6", Service.Alg6 { eps = 1e-9 }) ]

(* Every p from 1 to 8, so the uneven slicings (p = 5, 6, 7) are
   covered too. *)
let one_to_eight = List.init 8 succ
let test_correct_alg4 = check_local_correct "alg4" Service.Alg4 one_to_eight
let test_correct_alg5 = check_local_correct "alg5" Service.Alg5 one_to_eight
let test_correct_alg6 = check_local_correct "alg6" (Service.Alg6 { eps = 1e-9 }) one_to_eight

let test_balance () =
  (* Replicate slicing splits L evenly, so Algorithm 4's shards do
     near-equal work. *)
  let a, b = workload () in
  let t = (local ~p:4 Service.Alg4 [ a; b ]).Coordinator.per_shard_transfers in
  Alcotest.(check int) "four shards" 4 (Array.length t);
  Alcotest.(check bool) "balanced within 3x" true
    (slowest t < 3 * Array.fold_left min max_int t)

let test_more_shards_than_results () =
  (* P larger than S: some shards own an empty result-rank range. *)
  let rng = Rng.create 13 in
  let a, b = W.equijoin_pair rng ~na:4 ~nb:6 ~matches:3 ~max_multiplicity:1 in
  let o = local ~p:8 Service.Alg5 [ a; b ] in
  Alcotest.(check (list string)) "still the oracle" (tuple_set (oracle_of [ a; b ]))
    (tuple_set o.Coordinator.results)

let test_alg4_more_shards_than_tuples () =
  (* p > L = |A|x|B|: some shards get an empty index range.  They must
     behave exactly like absent workers — zero transfers, no phantom
     Output slot — while the join result and the accounting invariant
     (sum = speedup * max) stay intact. *)
  let rng = Rng.create 23 in
  let a, b = W.equijoin_pair rng ~na:2 ~nb:3 ~matches:2 ~max_multiplicity:1 in
  let l = Instance.l (Instance.create ~m:4 ~seed:1 ~predicate:pred [ a; b ]) in
  let p = l + 5 in
  let o = local ~p Service.Alg4 [ a; b ] in
  let t = o.Coordinator.per_shard_transfers in
  Alcotest.(check (list string)) "correct with p > L" (tuple_set (oracle_of [ a; b ]))
    (tuple_set o.Coordinator.results);
  Alcotest.(check int) "one slot per shard" p (Array.length t);
  let empties = Array.fold_left (fun n x -> if x = 0 then n + 1 else n) 0 t in
  Alcotest.(check bool) "empty shards exist and do zero transfers" true (empties >= p - l);
  Alcotest.(check (float 1e-6)) "sum = speedup * max" (float_of_int (sum t))
    (o.Coordinator.speedup *. float_of_int (slowest t))

let test_empty_join () =
  (* S = 0: Algorithms 5 and 6 leave every shard idle, and a fleet that
     did no work ran no faster than one coprocessor — speedup 1.0, not
     0.0.  Algorithm 4 still scans its slices, so only its p = 1 run is
     1.0. *)
  let rng = Rng.create 17 in
  let a, b = W.equijoin_pair rng ~na:5 ~nb:5 ~matches:0 ~max_multiplicity:1 in
  List.iter
    (fun (name, inner) ->
      List.iter
        (fun p ->
          let o = local ~p inner [ a; b ] in
          let label = Printf.sprintf "%s p=%d" name p in
          Alcotest.(check int) (label ^ " empty") 0 (List.length o.Coordinator.results);
          if inner <> Service.Alg4 then
            Alcotest.(check int) (label ^ " idle") 0 (slowest o.Coordinator.per_shard_transfers);
          if p = 1 || inner <> Service.Alg4 then
            Alcotest.(check (float 0.)) (label ^ " speedup") 1. o.Coordinator.speedup)
        [ 1; 3 ])
    slice_algorithms

let test_speedups_grow () =
  let a, b = workload () in
  List.iter
    (fun (name, inner) ->
      Alcotest.(check (float 1e-9)) (name ^ " p=1 baseline") 1.
        (local ~p:1 inner [ a; b ]).Coordinator.speedup;
      Alcotest.(check bool) (name ^ " p=4 speeds up") true
        ((local ~p:4 inner [ a; b ]).Coordinator.speedup > 1.5))
    slice_algorithms

let test_alg5_near_linear () =
  (* §5.3.5: "Algorithm 5 enjoys a linear speed up" — the dominant
     ceil(blk/M) L read term divides by P. *)
  let a, b = workload () in
  Alcotest.(check bool) "at least 3x at p=7" true
    ((local ~m:2 ~p:7 Service.Alg5 [ a; b ]).Coordinator.speedup >= 3.)

let test_transfer_accounting () =
  (* The reported speedup is total work over the slowest shard:
     sum = speedup * max must hold exactly, and partitioned work can
     never beat the slowest straggler, so speedup >= 1. *)
  let a, b = workload () in
  List.iter
    (fun (name, inner) ->
      List.iter
        (fun p ->
          let o = local ~p inner [ a; b ] in
          let t = o.Coordinator.per_shard_transfers in
          let label = Printf.sprintf "%s p=%d" name p in
          Alcotest.(check int) (label ^ " arity") p (Array.length t);
          Alcotest.(check (float 1e-6)) (label ^ " sum = speedup * max") (float_of_int (sum t))
            (o.Coordinator.speedup *. float_of_int (slowest t));
          Alcotest.(check bool) (label ^ " speedup >= 1") true (o.Coordinator.speedup >= 1.))
        [ 1; 2; 3; 5; 8 ])
    slice_algorithms

(* What one run leaves in view: its trace entries, the ciphertexts of
   every host region it defined, its disk and its cycle count. *)
let run_view inst =
  let module Host = Ppj_scpu.Host in
  let module Trace = Ppj_scpu.Trace in
  let co = Instance.co inst in
  let host = Co.host co in
  let region r =
    match Host.region_size host r with
    | n -> Some (List.init n (Host.peek host r))
    | exception Invalid_argument _ -> None
  in
  ( List.map (Format.asprintf "%a" Trace.pp_entry) (Trace.to_list (Co.trace co)),
    List.map region
      (Instance.relation_region inst 0 :: Instance.relation_region inst 1
      :: Trace.[ Cartesian; Scratch; Joined; Buffer; Output ]),
    Host.disk host,
    Co.cycles co )

let test_p1_matches_sequential_trace () =
  (* One shard is the sequential algorithm: the slice learns S untraced,
     and shard 0 of 1 runs on the sequential run's coprocessor seed, so
     the two leave the same view, with no screening term.  The one seam
     is Algorithm 5 at S = 0: the sequential first scan learns S, while
     a slice that knows S = 0 runs none. *)
  let run ~m ~seed algorithm rels =
    Service.execute_join { Service.m; seed; algorithm } ~predicate:pred rels
  in
  let view (inst, report) = (run_view inst, report.Ppj_core.Report.pad_slots) in
  List.iter
    (fun (na, nb, m) ->
      for matches = 0 to min nb (2 * na) do
        for data_seed = 1 to 3 do
          let a, b =
            W.equijoin_pair (Rng.create ((100 * data_seed) + matches)) ~na ~nb ~matches
              ~max_multiplicity:2
          in
          let name alg = Printf.sprintf "%s %dx%d m=%d S=%d seed %d" alg na nb m matches data_seed in
          let same alg inner =
            let seq = run ~m ~seed:data_seed inner [ a; b ] in
            let slice = run ~m ~seed:data_seed (Service.Sharded { k = 0; p = 1; inner }) [ a; b ] in
            Alcotest.(check bool) (name alg ^ ": p=1 = sequential") true (view seq = view slice)
          in
          same "alg4" Service.Alg4;
          if matches > 0 then same "alg5" Service.Alg5
          else begin
            let seq, _ = run ~m ~seed:data_seed Service.Alg5 [ a; b ] in
            let slice, _ =
              run ~m ~seed:data_seed (Service.Sharded { k = 0; p = 1; inner = Service.Alg5 }) [ a; b ]
            in
            Alcotest.(check (pair int int)) (name "alg5" ^ ": one scan against none")
              (na * nb, 0)
              (Co.transfers (Instance.co seq), Co.transfers (Instance.co slice))
          end
        done
      done)
    [ (4, 6, 3); (5, 7, 3); (3, 8, 1) ]

(* --- coordinator over the wire ---------------------------------------- *)

let mac_key = "test-shard-mac-key"
let schema = W.keyed_schema ()

let contract =
  { Ch.contract_id = "shard-test-contract";
    providers = [ "alice"; "bob" ];
    recipient = "carol";
    predicate = "eq(key,key)";
  }

let no_sleep = { Client.default_config with sleep = ignore; recv_timeout = 0.01 }

let wire_config ?(p = 2) inner =
  { Coordinator.p; m = 4; seed = 7; inner; strategy = Partitioner.Replicate }

let wire_setup ?(p = 2) ?(connect_hook = fun _ t -> t) () =
  let shard_servers =
    Array.init p (fun _ -> Reactor.create (Server.create ~mac_key ~seed:5 ()))
  in
  let shards =
    Shards.create ~p ~connect:(fun k -> Ok (connect_hook k (Transport.loopback shard_servers.(k))))
  in
  shards

let run_wire ?metrics ?p shards inner =
  let a, b = workload () in
  Coordinator.run_wire ?metrics ~client_config:no_sleep ~shards ~seed:23
    ~mac_key ~contract
    ~providers:[ ("alice", schema, a); ("bob", schema, b) ]
    (wire_config ?p inner)

let test_wire_matches_oracle () =
  List.iter
    (fun inner ->
      let shards = wire_setup () in
      match run_wire shards inner with
      | Error e -> Alcotest.fail e
      | Ok o ->
          let a, b = workload () in
          Alcotest.(check (list string)) "wire join = oracle" (tuple_set (oracle_of [ a; b ]))
            (tuple_set o.Coordinator.tuples);
          Alcotest.(check int) "two shards reported" 2
            (Array.length o.Coordinator.wire_per_shard_transfers);
          Alcotest.(check bool) "schema delivered" true
            (Schema.fields o.Coordinator.schema <> []))
    [ Service.Alg4; Service.Alg5; Service.Alg6 { eps = 1e-9 } ]

let test_wire_p_mismatch () =
  let shards = wire_setup () in
  let a, b = workload () in
  match
    Coordinator.run_wire ~client_config:no_sleep ~shards ~seed:23 ~mac_key ~contract
      ~providers:[ ("alice", schema, a); ("bob", schema, b) ]
      { (wire_config Service.Alg4) with Coordinator.p = 3 }
  with
  | Ok _ -> Alcotest.fail "p mismatch accepted"
  | Error e -> Alcotest.(check bool) "arity error" true (contains ~sub:"arity" e)

let test_wire_kill_is_typed_refusal () =
  (* Shard 1's transport dies after a few sends on every dial: with one
     attempt the coordinator must refuse with the typed prefix, never
     deliver a partial join. *)
  let shards =
    wire_setup
      ~connect_hook:(fun k t -> if k = 1 then fst (Transport.fused ~after_sends:3 t) else t)
      ()
  in
  match run_wire shards Service.Alg5 with
  | Ok _ -> Alcotest.fail "killed shard yielded a result"
  | Error e ->
      Alcotest.(check bool)
        (Printf.sprintf "typed refusal (got %s)" e)
        true
        (contains ~sub:"shard-unavailable: shard 1:" e)

let test_local_matches_wire_transfers () =
  (* The in-process model and real shard servers charge each shard the
     same work: both learn S outside the trace. *)
  let a, b = workload () in
  List.iter
    (fun (name, inner) ->
      List.iter
        (fun p ->
          match run_wire ~p (wire_setup ~p ()) inner with
          | Error e -> Alcotest.fail e
          | Ok w -> (
              match
                Coordinator.run_local ~backend:Coordinator.Sequential (wire_config ~p inner)
                  ~predicate:pred [ a; b ]
              with
              | Error e -> Alcotest.fail e
              | Ok o ->
                  Alcotest.(check (array int))
                    (Printf.sprintf "%s p=%d per-shard transfers" name p)
                    o.Coordinator.per_shard_transfers w.Coordinator.wire_per_shard_transfers))
        [ 1; 2; 4 ])
    slice_algorithms

(* --- wire codec for the sharded algorithm ----------------------------- *)

let test_sharded_config_roundtrip () =
  List.iter
    (fun inner ->
      let cfg =
        { Service.m = 4; seed = 7; algorithm = Service.Sharded { k = 1; p = 3; inner } }
      in
      match Wire.config_of_string (Wire.config_to_string cfg) with
      | Ok c -> Alcotest.(check bool) "config roundtrips" true (c = cfg)
      | Error e -> Alcotest.fail e)
    [ Service.Alg4;
      Service.Alg5;
      Service.Alg6 { eps = 1e-7 };
      Service.Alg8 { attr_a = "key"; attr_b = "key" };
      Service.Auto { max_eps = 1e-6 }
    ]

let test_nested_sharded_rejected () =
  let cfg =
    { Service.m = 4;
      seed = 7;
      algorithm =
        Service.Sharded { k = 0; p = 2; inner = Service.Sharded { k = 0; p = 2; inner = Service.Alg4 } };
    }
  in
  match Wire.config_of_string (Wire.config_to_string cfg) with
  | Ok _ -> Alcotest.fail "nested sharded decoded"
  | Error e -> Alcotest.(check bool) "nested named" true (contains ~sub:"nested" e)

let test_shard_unavailable_code_roundtrip () =
  let msg = Wire.Error { code = Wire.Shard_unavailable; message = "shard 1 gone" } in
  (match Wire.of_frame (Wire.to_frame msg) with
  | Ok m -> Alcotest.(check bool) "error roundtrips" true (m = msg)
  | Error e -> Alcotest.fail e);
  Alcotest.(check string) "string form" "shard-unavailable"
    (Wire.error_code_to_string Wire.Shard_unavailable)

let test_sharded_algorithm_name () =
  Alcotest.(check string) "name carries k/p" "alg5[1/3]"
    (Service.algorithm_name (Service.Sharded { k = 1; p = 3; inner = Service.Alg5 }))

(* --- chaos: kill one shard mid-join ----------------------------------- *)

(* One seeded trial: a 2-shard coordinator over in-process shard servers,
   where the victim shard either drops dead mid-session (a fused
   transport for its first one or two dials, so the kill lands in the
   first upload, the second or, once the fuse outlasts them, not at
   all) or runs under a random fault plan (coprocessor crashes resumed
   from sealed checkpoints inside the per-shard client's retries, frame
   faults, recv timeouts).  Nothing sleeps, so a trial can only finish,
   never hang. *)
let chaos_mac_key = "shard-chaos-mac-key"

let chaos_contract =
  { Ch.contract_id = "shard-chaos-contract";
    providers = [ "alice"; "bob" ];
    recipient = "carol";
    predicate = "eq(key,key)";
  }

let chaos_config =
  { Coordinator.p = 2; m = 4; seed = 7; inner = Service.Alg5; strategy = Partitioner.Replicate }

let kill_one_shard seed =
  let victim = seed mod 2 in
  let killed = seed mod 3 = 0 in
  let fused_dials = 1 + (seed / 3 mod 2) in
  let after_sends = 2 + (seed / 2 mod 24) in
  let plan = if killed then None else Some (Ppj_fault.Plan.random ~seed) in
  let faults = Option.map Ppj_fault.Injector.create plan in
  let victim_faults k = if k = victim then faults else None in
  let server_regs = Array.init 2 (fun _ -> Registry.create ()) in
  let shard_servers =
    Array.init 2 (fun k ->
        Reactor.create
          (Server.create ~registry:server_regs.(k) ~mac_key:chaos_mac_key ~seed:5
             ?faults:(victim_faults k) ()))
  in
  let dials = Array.make 2 0 in
  let connect k =
    dials.(k) <- dials.(k) + 1;
    let t = Transport.loopback ?faults:(victim_faults k) shard_servers.(k) in
    if killed && k = victim && dials.(k) <= fused_dials then
      Ok (fst (Transport.fused ~after_sends t))
    else Ok t
  in
  let rng = Rng.create ((2 * seed) + 1) in
  let a, b = W.equijoin_pair rng ~na:8 ~nb:12 ~matches:9 ~max_multiplicity:3 in
  let expected =
    Result.get_ok
      (Chaos.oracle
         { Service.m = chaos_config.Coordinator.m;
           seed = chaos_config.Coordinator.seed;
           algorithm = chaos_config.Coordinator.inner;
         }
         ~contract:chaos_contract
         [ (schema, a); (schema, b) ])
  in
  let result =
    Coordinator.run_wire
      ~client_config:{ no_sleep with Client.max_retries = 6 }
      ~shards:(Shards.create ~p:2 ~connect) ~seed:(seed + 17)
      ~mac_key:chaos_mac_key ~contract:chaos_contract
      ~providers:[ ("alice", schema, a); ("bob", schema, b) ]
      chaos_config
  in
  { Chaos.seed;
    plan =
      (match plan with
      | None -> Printf.sprintf "kill shard %d after %d sends, %d dial(s)" victim after_sends fused_dials
      | Some plan -> Printf.sprintf "shard %d: %s" victim (Ppj_fault.Plan.to_string plan));
    outcome = Chaos.judge ~expected (Result.map (fun o -> o.Coordinator.tuples) result);
    crashes =
      Array.fold_left
        (fun n r -> n + Counter.value (Registry.counter r "net.server.joins.crashed"))
        0 server_regs;
    injected = (match faults with Some f -> Ppj_fault.Injector.injected f | None -> 0);
  }

let test_chaos_soak () =
  let registry = Registry.create () in
  let runs = Chaos.soak ~registry ~runs:45 (Chaos.printing kill_one_shard) in
  Format.printf "%a" (Chaos.pp_report ~name:"shard-chaos") runs;
  let t = Chaos.tally runs in
  Alcotest.(check int) "never a wrong answer" 0 t.Chaos.wrong;
  Alcotest.(check bool) "some runs survive" true (t.Chaos.correct > 0);
  Alcotest.(check bool) "some runs refuse (typed)" true (t.Chaos.refused > 0);
  (* the checkpoint/resume path: a coprocessor crashed on a shard server
     and the join still completed correctly *)
  Alcotest.(check bool) "crash-resume produced correct joins" true (t.Chaos.resumed > 0);
  Alcotest.(check int) "registry counted every run" 45
    (Counter.value (Registry.counter registry "chaos.runs"))

(* --- load imbalance metrics (satellite) ------------------------------- *)

let summary_of registry name =
  match Histogram.summary (Registry.histogram registry name) with
  | Some s -> s
  | None -> Alcotest.fail (name ^ " histogram is empty")

let test_leaky_skew_is_visible () =
  (* Negative control: with the leaky mu = s_k budget, a workload whose
     matches all sit in one slice shows up as per-shard load skew; the
     public budget flattens it. *)
  (match List.map Co.transfers (concentrated_shards ~leaky:true 0) with
  | [ t0; t1 ] -> Alcotest.(check bool) "skew visible" true (t0 <> t1)
  | _ -> Alcotest.fail "two shards expected");
  match List.map Co.transfers (concentrated_shards ~leaky:false 0) with
  | [ t0; t1 ] -> Alcotest.(check int) "public budget flattens it" t0 t1
  | _ -> Alcotest.fail "two shards expected"

let test_shard_load_histogram () =
  let a, b = zipf_pair 9 in
  let metrics = Metrics.create () in
  match
    Coordinator.run_local ~metrics ~backend:Coordinator.Sequential
      (local_config ~p:4 Service.Alg4) ~predicate:pred [ a; b ]
  with
  | Error e -> Alcotest.fail e
  | Ok o ->
      let registry = Metrics.registry metrics in
      let s = summary_of registry "shard.co.load" in
      Alcotest.(check int) "one sample per shard" 4 s.Histogram.count;
      Alcotest.(check bool) "p95 <= max" true (s.Histogram.p95 <= s.Histogram.max);
      Alcotest.(check bool) "balanced under zipf" true (s.Histogram.max < 3. *. s.Histogram.min);
      Alcotest.(check int) "total transfers counted"
        (Array.fold_left ( + ) 0 o.Coordinator.per_shard_transfers)
        (Counter.value (Registry.counter registry "shard.transfers.total"));
      Alcotest.(check int) "all shards completed" 4
        (Counter.value (Registry.counter registry "shard.co.completed"))

let test_parallel_load_balanced_under_zipf () =
  (* Replicate slicing is shape-driven: on the Domains backend, where
     the shards observe into the sink concurrently, a Zipf-skewed key
     distribution still yields one flat shard.co.load sample per shard,
     and the same loads as the sequential backend. *)
  let a, b = zipf_pair 9 in
  let loads backend =
    let metrics = Metrics.create () in
    match
      Coordinator.run_local ~metrics ~backend (local_config ~p:4 Service.Alg4) ~predicate:pred
        [ a; b ]
    with
    | Error e -> Alcotest.fail e
    | Ok _ -> summary_of (Metrics.registry metrics) "shard.co.load"
  in
  let s = loads Coordinator.Domains in
  Alcotest.(check int) "one sample per shard" 4 s.Histogram.count;
  Alcotest.(check bool) "balanced: max < 3 * min" true (s.Histogram.max < 3. *. s.Histogram.min);
  Alcotest.(check bool) "same loads as sequential" true (s = loads Coordinator.Sequential)

let test_wire_metrics () =
  let shards = wire_setup () in
  let metrics = Metrics.create () in
  match run_wire ~metrics shards Service.Alg4 with
  | Error e -> Alcotest.fail e
  | Ok _ ->
      let registry = Metrics.registry metrics in
      let s = summary_of registry "shard.co.load" in
      Alcotest.(check int) "both shards observed" 2 s.Histogram.count

(* ---------------------------------------------------------------------- *)

let () =
  Alcotest.run "shard"
    [ ( "merge",
        [ Alcotest.test_case "compacts stable" `Quick test_merge_compacts_stable;
          Alcotest.test_case "schedule is shape-only" `Quick test_merge_schedule_is_shape_only;
          Alcotest.test_case "all pads / empty" `Quick test_merge_all_pads_and_empty;
          Alcotest.test_case "reals in order, exact comparators" `Quick test_merge_property
        ] );
      ( "definition 1/3",
        sharded_properties
        @ [ Alcotest.test_case "leaky negative control" `Quick test_leaky_negative_control;
            Alcotest.test_case "public budget heals the leak" `Quick
              test_public_budget_heals_the_leak;
            Alcotest.test_case "shard count mismatch" `Quick
              test_shard_count_mismatch_distinguishable
          ] );
      ( "coordinator local",
        [ Alcotest.test_case "replicate alg4 = oracle" `Quick test_local_replicate_alg4;
          Alcotest.test_case "replicate alg5 = oracle" `Quick test_local_replicate_alg5;
          Alcotest.test_case "replicate alg6 = oracle" `Quick test_local_replicate_alg6;
          Alcotest.test_case "alg6 blemish refused, never short" `Quick
            test_local_alg6_blemish_refused;
          Alcotest.test_case "replicate alg8 = oracle" `Quick test_local_replicate_alg8;
          Alcotest.test_case "invalid p rejected" `Quick test_invalid_p_rejected;
          Alcotest.test_case "bad inner rejected" `Quick test_bad_inner_rejected;
          Alcotest.test_case "domains = sequential" `Quick test_domains_matches_sequential;
          Alcotest.test_case "speedup accounting" `Quick test_local_speedup_accounting;
          Alcotest.test_case "merge comparators exact, p=1..5" `Quick
            test_merge_comparators_exact;
          Alcotest.test_case "slices seal under distinct keys" `Quick
            test_slices_seal_under_distinct_keys
        ] );
      ( "correctness",
        [ Alcotest.test_case "alg4 p=1..8" `Quick test_correct_alg4;
          Alcotest.test_case "alg5 p=1..8" `Quick test_correct_alg5;
          Alcotest.test_case "alg6 p=1..8" `Quick test_correct_alg6;
          Alcotest.test_case "more cos than results" `Quick test_more_shards_than_results;
          Alcotest.test_case "alg4 p > L empty shards" `Quick test_alg4_more_shards_than_tuples;
          Alcotest.test_case "empty join" `Quick test_empty_join
        ] );
      ( "speedup",
        [ Alcotest.test_case "speedups grow" `Quick test_speedups_grow;
          Alcotest.test_case "alg5 near linear" `Quick test_alg5_near_linear;
          Alcotest.test_case "balance" `Quick test_balance
        ] );
      ( "invariants",
        [ Alcotest.test_case "transfer accounting" `Quick test_transfer_accounting;
          Alcotest.test_case "p=1 matches sequential trace" `Quick
            test_p1_matches_sequential_trace
        ] );
      ( "coordinator wire",
        [ Alcotest.test_case "2-shard join = oracle" `Quick test_wire_matches_oracle;
          Alcotest.test_case "p mismatch refused" `Quick test_wire_p_mismatch;
          Alcotest.test_case "kill -> typed refusal" `Quick test_wire_kill_is_typed_refusal;
          Alcotest.test_case "local = wire per-shard transfers" `Quick
            test_local_matches_wire_transfers
        ] );
      ( "wire codec",
        [ Alcotest.test_case "sharded config roundtrip" `Quick test_sharded_config_roundtrip;
          Alcotest.test_case "nested sharded rejected" `Quick test_nested_sharded_rejected;
          Alcotest.test_case "shard-unavailable roundtrip" `Quick
            test_shard_unavailable_code_roundtrip;
          Alcotest.test_case "algorithm name" `Quick test_sharded_algorithm_name
        ] );
      ( "domains concurrency",
        [ Alcotest.test_case "schedule cache builds once" `Quick test_parallel_schedule_cache;
          Alcotest.test_case "registry counters lose nothing" `Quick
            test_parallel_registry_counters;
          Alcotest.test_case "failing job joins the rest first" `Quick
            test_parallel_map_joins_before_raising;
          Alcotest.test_case "workers reused across calls" `Quick
            test_parallel_map_reuses_workers;
          Alcotest.test_case "nested call raises" `Quick test_parallel_map_nested_call_raises;
          Alcotest.test_case "pad gauge per shard on Domains" `Quick
            test_domains_pad_gauge_per_shard
        ] );
      ("chaos", [ Alcotest.test_case "kill-one-shard soak" `Quick test_chaos_soak ]);
      ( "load",
        [ Alcotest.test_case "parallel balanced under zipf" `Quick
            test_parallel_load_balanced_under_zipf;
          Alcotest.test_case "leaky skew visible" `Quick test_leaky_skew_is_visible;
          Alcotest.test_case "shard.co.load histogram" `Quick test_shard_load_histogram;
          Alcotest.test_case "wire metrics" `Quick test_wire_metrics
        ] )
    ]
