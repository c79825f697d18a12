(* Unit tests for lib/obs: counters, histograms, spans, the registry and
   the JSON snapshot format.  The snapshot/JSON round-trip tests are what
   make BENCH_*.json files trustworthy as machine-readable artefacts. *)

module Obs = Ppj_obs
module Counter = Obs.Counter
module Histogram = Obs.Histogram
module Registry = Obs.Registry
module Snapshot = Obs.Snapshot
module Json = Obs.Json
module Clock = Obs.Clock

(* --- Counter semantics --- *)

let test_counter_basics () =
  let c = Counter.create () in
  Alcotest.(check int) "starts at zero" 0 (Counter.value c);
  Counter.incr c;
  Counter.incr c ~by:5;
  Alcotest.(check int) "incr accumulates" 6 (Counter.value c);
  Counter.set_to c 4;
  Alcotest.(check int) "set_to never regresses" 6 (Counter.value c);
  Counter.set_to c 10;
  Alcotest.(check int) "set_to advances" 10 (Counter.value c)

let test_counter_rejects_negative () =
  let c = Counter.create () in
  Alcotest.check_raises "negative increment"
    (Invalid_argument "Counter.incr: negative increment") (fun () -> Counter.incr c ~by:(-1))

(* --- Histogram semantics --- *)

let test_histogram_percentiles () =
  let h = Histogram.create () in
  (* 1..100 in scrambled order: nearest-rank percentiles are exact. *)
  List.iter
    (fun i -> Histogram.observe h (float_of_int (((i * 37) mod 100) + 1)))
    (List.init 100 Fun.id);
  match Histogram.summary h with
  | None -> Alcotest.fail "expected a summary"
  | Some s ->
      Alcotest.(check int) "count" 100 s.Histogram.count;
      Alcotest.(check (float 1e-9)) "min" 1.0 s.Histogram.min;
      Alcotest.(check (float 1e-9)) "max" 100.0 s.Histogram.max;
      Alcotest.(check (float 1e-9)) "mean" 50.5 s.Histogram.mean;
      Alcotest.(check (float 1e-9)) "p50" 50.0 s.Histogram.p50;
      Alcotest.(check (float 1e-9)) "p95" 95.0 s.Histogram.p95;
      Alcotest.(check (float 1e-9)) "p99" 99.0 s.Histogram.p99;
      Alcotest.(check bool) "below the cap is never sampled" false s.Histogram.sampled

let test_histogram_single_observation () =
  let h = Histogram.create () in
  Histogram.observe h 3.25;
  match Histogram.summary h with
  | None -> Alcotest.fail "expected a summary"
  | Some s ->
      Alcotest.(check (float 1e-9)) "p50 = the value" 3.25 s.Histogram.p50;
      Alcotest.(check (float 1e-9)) "p95 = the value" 3.25 s.Histogram.p95;
      Alcotest.(check (float 1e-9)) "p99 = the value" 3.25 s.Histogram.p99

let test_histogram_sorts_negatives () =
  (* Float.compare, not polymorphic compare: mixed-sign values must sort
     numerically. *)
  let h = Histogram.create () in
  List.iter (Histogram.observe h) [ 3.5; -2.0; 0.0; -7.25; 1.0 ];
  match Histogram.summary h with
  | None -> Alcotest.fail "expected a summary"
  | Some s ->
      Alcotest.(check (float 1e-9)) "min" (-7.25) s.Histogram.min;
      Alcotest.(check (float 1e-9)) "max" 3.5 s.Histogram.max;
      Alcotest.(check (float 1e-9)) "p50" 0.0 s.Histogram.p50

(* The reservoir is a constant: feed past [Histogram.cap] to sample. *)
let test_histogram_reservoir_cap () =
  let n = 2 * Histogram.cap + 1000 in
  let h = Histogram.create () in
  for i = 1 to n do
    Histogram.observe h (float_of_int i)
  done;
  Alcotest.(check int) "count is logical, not the sample size" n (Histogram.count h);
  Alcotest.(check bool) "past the cap means sampled" true (Histogram.sampled h);
  match Histogram.summary h with
  | None -> Alcotest.fail "expected a summary"
  | Some s ->
      let fn = float_of_int n in
      Alcotest.(check int) "summary count" n s.Histogram.count;
      Alcotest.(check (float 1e-9)) "sum is exact despite sampling" (fn *. (fn +. 1.) /. 2.)
        s.Histogram.sum;
      Alcotest.(check (float 1e-9)) "mean is exact despite sampling" ((fn +. 1.) /. 2.)
        s.Histogram.mean;
      Alcotest.(check bool) "summary carries the sampled flag" true s.Histogram.sampled;
      (* Algorithm R keeps a uniform sample of 1..n: percentiles are
         estimates, but must stay inside the observed range. *)
      Alcotest.(check bool) "p50 estimate in range" true
        (s.Histogram.p50 >= 1.0 && s.Histogram.p50 <= fn)

let test_histogram_reservoir_deterministic () =
  (* The replacement stream is seeded per histogram, not from the global
     [Random]: two identically-fed histograms must sample identically. *)
  let fill () =
    let h = Histogram.create () in
    for i = 1 to Histogram.cap + 3000 do
      Histogram.observe h (float_of_int ((i * 37) mod 251))
    done;
    Histogram.summary h
  in
  Alcotest.(check bool) "same feed, same reservoir" true (fill () = fill ())

let test_histogram_below_cap_is_exact () =
  (* Exactly [cap] observations, scrambled: every one is kept, so the
     nearest-rank quantiles are exact; one more starts the sampling. *)
  let h = Histogram.create () in
  for i = 0 to Histogram.cap - 1 do
    Histogram.observe h (float_of_int (((i * 37) mod Histogram.cap) + 1))
  done;
  Alcotest.(check bool) "at cap never sampled" false (Histogram.sampled h);
  (match Histogram.summary h with
  | Some s ->
      Alcotest.(check (float 1e-9)) "exact p50" (float_of_int (Histogram.cap / 2)) s.Histogram.p50;
      Alcotest.(check (float 1e-9)) "exact p99"
        (Float.ceil (0.99 *. float_of_int Histogram.cap))
        s.Histogram.p99
  | None -> Alcotest.fail "expected a summary");
  Histogram.observe h 0.5;
  Alcotest.(check bool) "one past the cap is sampled" true (Histogram.sampled h)

let test_histogram_empty () =
  Alcotest.(check bool) "empty has no summary" true (Histogram.summary (Histogram.create ()) = None)

let test_histogram_rejects_non_finite () =
  let h = Histogram.create () in
  Alcotest.check_raises "nan" (Invalid_argument "Histogram.observe: non-finite value")
    (fun () -> Histogram.observe h Float.nan)

(* --- Spans under a fake clock --- *)

let test_span_measures_elapsed () =
  let t = ref 100.0 in
  Clock.set_source (fun () -> !t);
  Fun.protect ~finally:Clock.reset_source (fun () ->
      let reg = Registry.create () in
      let result = Registry.span reg "phase.seconds" (fun () -> t := !t +. 2.5; 42) in
      Alcotest.(check int) "span is transparent" 42 result;
      match Snapshot.find (Registry.snapshot reg) "phase.seconds" with
      | Some { Snapshot.value = Snapshot.Summary s; _ } ->
          Alcotest.(check (float 1e-9)) "elapsed" 2.5 s.Histogram.p50
      | _ -> Alcotest.fail "span did not record a summary")

let test_span_records_on_raise () =
  let t = ref 0.0 in
  Clock.set_source (fun () -> !t);
  Fun.protect ~finally:Clock.reset_source (fun () ->
      let reg = Registry.create () in
      (try
         Registry.span reg "failing.seconds" (fun () -> t := !t +. 1.0; failwith "boom")
       with Failure _ -> ());
      match Snapshot.find (Registry.snapshot reg) "failing.seconds" with
      | Some { Snapshot.value = Snapshot.Summary s; _ } ->
          Alcotest.(check int) "one observation despite the raise" 1 s.Histogram.count
      | _ -> Alcotest.fail "raised span was not recorded")

(* --- Registry semantics --- *)

let test_registry_memoizes () =
  let reg = Registry.create () in
  Counter.incr (Registry.counter reg "hits") ~by:3;
  Counter.incr (Registry.counter reg "hits") ~by:4;
  match Snapshot.find (Registry.snapshot reg) "hits" with
  | Some { Snapshot.value = Snapshot.Counter v; _ } ->
      Alcotest.(check int) "same name, same instrument" 7 v
  | _ -> Alcotest.fail "counter missing from snapshot"

let test_registry_label_order_is_identity () =
  let reg = Registry.create () in
  Counter.incr (Registry.counter reg ~labels:[ ("a", "1"); ("b", "2") ] "x");
  Counter.incr (Registry.counter reg ~labels:[ ("b", "2"); ("a", "1") ] "x");
  match Registry.snapshot reg with
  | [ { Snapshot.value = Snapshot.Counter 2; _ } ] -> ()
  | snap -> Alcotest.failf "expected one metric at 2, got %a" Snapshot.pp snap

let test_registry_kind_mismatch () =
  let reg = Registry.create () in
  ignore (Registry.counter reg "m");
  Alcotest.(check bool) "histogram over counter raises" true
    (try
       ignore (Registry.histogram reg "m");
       false
     with Invalid_argument _ -> true)

let test_snapshot_order_independent () =
  (* Two registries populated in opposite insertion order must snapshot
     identically — this is what makes BENCH_*.json diffable. *)
  let fill names =
    let reg = Registry.create () in
    List.iter (fun n -> Counter.incr (Registry.counter reg n)) names;
    Registry.snapshot reg
  in
  let a = fill [ "zeta"; "alpha"; "mid" ] and b = fill [ "mid"; "alpha"; "zeta" ] in
  Alcotest.(check bool) "sorted snapshots equal" true (a = b)

(* --- JSON --- *)

let test_json_round_trip () =
  let v =
    Json.Obj
      [ ("s", Json.Str "a \"quoted\"\nline \t with \\ specials");
        ("i", Json.Int 42);
        ("f", Json.Float 1.5);
        ("neg", Json.Int (-7));
        ("null", Json.Null);
        ("flags", Json.List [ Json.Bool true; Json.Bool false ]);
        ("nested", Json.Obj [ ("empty_list", Json.List []); ("empty_obj", Json.Obj []) ])
      ]
  in
  match Json.of_string (Json.to_string v) with
  | Ok v' -> Alcotest.(check bool) "round trip" true (Json.equal v v')
  | Error e -> Alcotest.failf "parse failed: %s" e

let test_json_float_stays_float () =
  (* 2.0 must not silently become Int 2 across a round trip: gauge metrics
     rely on the distinction. *)
  match Json.of_string (Json.to_string (Json.Float 2.0)) with
  | Ok (Json.Float f) -> Alcotest.(check (float 1e-9)) "value" 2.0 f
  | Ok _ -> Alcotest.fail "float decoded as a different constructor"
  | Error e -> Alcotest.failf "parse failed: %s" e

let test_json_parse_errors () =
  List.iter
    (fun s ->
      match Json.of_string s with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted malformed input %S" s)
    [ ""; "{"; "[1,]"; "{\"a\":}"; "tru"; "\"unterminated"; "1 2" ]

let test_json_unicode_escape () =
  match Json.of_string {|"é\n"|} with
  | Ok (Json.Str s) -> Alcotest.(check string) "utf-8 decode" "\xc3\xa9\n" s
  | Ok _ -> Alcotest.fail "expected a string"
  | Error e -> Alcotest.failf "parse failed: %s" e

(* Randomised round trip: any value the generator below can build must
   survive to_string ∘ of_string unchanged.  Floats are drawn finite
   (non-finite serialises as null by design) and strings over the full
   byte range the escaper handles. *)
let json_gen =
  let open QCheck.Gen in
  let scalar =
    oneof
      [ return Json.Null;
        map (fun b -> Json.Bool b) bool;
        map (fun i -> Json.Int i) (int_range (-1_000_000) 1_000_000);
        map (fun f -> Json.Float f) (float_range (-1e9) 1e9);
        map (fun s -> Json.Str s) (string_size ~gen:(map Char.chr (int_range 0 255)) (int_range 0 12))
      ]
  in
  let key = string_size ~gen:printable (int_range 0 8) in
  sized (fun n ->
      fix
        (fun self n ->
          if n <= 0 then scalar
          else
            frequency
              [ (2, scalar);
                (1, map (fun l -> Json.List l) (list_size (int_range 0 4) (self (n / 2))));
                (1, map (fun kvs -> Json.Obj kvs)
                     (list_size (int_range 0 4) (pair key (self (n / 2)))))
              ])
        (min n 8))

let test_json_random_round_trip () =
  let cell =
    QCheck.Test.make_cell ~count:200 ~name:"json round trip"
      (QCheck.make ~print:Json.to_string json_gen) (fun v ->
        match Json.of_string (Json.to_string v) with
        | Ok v' -> Json.equal v v'
        | Error _ -> false)
  in
  QCheck.Test.check_cell_exn ~rand:(Random.State.make [| 2026 |]) cell

let test_json_rejects_truncated_escapes () =
  List.iter
    (fun s ->
      match Json.of_string s with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted truncated escape %S" s)
    [ {|"ab\|}; {|"ab\u00|}; {|"ab\u00zz"|}; {|"\q"|}; "\"ab" ]

let test_json_rejects_trailing_garbage () =
  List.iter
    (fun s ->
      match Json.of_string s with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted trailing garbage in %S" s)
    [ "{} x"; "[1] ]"; "null,"; "42 43" ]

let test_json_nesting_depth () =
  let nested n = String.concat "" (List.init n (Fun.const "[")) ^ String.concat "" (List.init n (Fun.const "]")) in
  (match Json.of_string (nested 100) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "rejected 100-deep nesting: %s" e);
  match Json.of_string (nested 600) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "600-deep nesting accepted: stack-overflow guard missing"

let test_snapshot_json_round_trip () =
  let reg = Registry.create () in
  Counter.incr (Registry.counter reg ~labels:[ ("alg", "alg5") ] "transfers") ~by:123;
  Registry.set_gauge reg "speedup" 2.5;
  let h = Registry.histogram reg ~labels:[ ("phase", "join") ] "seconds" in
  List.iter (Histogram.observe h) [ 0.5; 1.5; 2.5 ];
  let snap = Registry.snapshot reg in
  match Snapshot.of_json (Snapshot.to_json snap) with
  | Ok snap' -> Alcotest.(check bool) "snapshot round trip" true (snap = snap')
  | Error e -> Alcotest.failf "of_json failed: %s" e

let test_snapshot_union_second_wins () =
  let mk v =
    let reg = Registry.create () in
    Counter.incr (Registry.counter reg "n") ~by:v;
    Registry.snapshot reg
  in
  match Snapshot.find (Snapshot.union (mk 1) (mk 9)) "n" with
  | Some { Snapshot.value = Snapshot.Counter 9; _ } -> ()
  | _ -> Alcotest.fail "union did not prefer the second snapshot"

let observe_all h vs = List.iter (Histogram.observe h) vs

(* --- Snapshot.merge ---------------------------------------------------- *)

let test_snapshot_merge_values () =
  let mk c g hs =
    let reg = Registry.create () in
    Counter.incr (Registry.counter reg "joins") ~by:c;
    Registry.set_gauge reg "depth" g;
    observe_all (Registry.histogram reg "lat") hs;
    Registry.snapshot reg
  in
  let m = Snapshot.merge (mk 3 5. [ 1.; 2. ]) (mk 4 2. [ 3. ]) in
  (match Snapshot.find m "joins" with
  | Some { Snapshot.value = Snapshot.Counter 7; _ } -> ()
  | _ -> Alcotest.fail "counters must add");
  (match Snapshot.find m "depth" with
  | Some { Snapshot.value = Snapshot.Gauge g; _ } -> Alcotest.(check (float 1e-9)) "gauge max" 5. g
  | _ -> Alcotest.fail "gauge missing");
  match Snapshot.find m "lat" with
  | Some { Snapshot.value = Snapshot.Summary s; _ } ->
      Alcotest.(check int) "summary counts add" 3 s.Histogram.count;
      Alcotest.(check (float 1e-9)) "summary sums add" 6. s.Histogram.sum;
      Alcotest.(check (float 1e-9)) "merged p99" 3. s.Histogram.p99
  | _ -> Alcotest.fail "summary missing"

let test_snapshot_merge_kind_mismatch_raises () =
  let c =
    let reg = Registry.create () in
    Counter.incr (Registry.counter reg "x");
    Registry.snapshot reg
  in
  let g =
    let reg = Registry.create () in
    Registry.set_gauge reg "x" 1.;
    Registry.snapshot reg
  in
  match Snapshot.merge c g with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "kind mismatch must raise"

let test_snapshot_merge_disjoint_union_laws () =
  (* Label-disjoint snapshots (each carries its own shard label): merge
     is their union, associative and commutative. *)
  let mk k =
    let reg = Registry.create () in
    Counter.incr (Registry.counter reg ~labels:[ ("shard", string_of_int k) ] "transfers")
      ~by:(10 + k);
    Registry.set_gauge reg ~labels:[ ("shard", string_of_int k) ] "pad" (float_of_int k);
    Registry.snapshot reg
  in
  let a = mk 0 and b = mk 1 and c = mk 2 in
  let l = Snapshot.merge (Snapshot.merge a b) c in
  let r = Snapshot.merge a (Snapshot.merge b c) in
  Alcotest.(check bool) "associative" true (l = r);
  Alcotest.(check bool) "commutative" true (Snapshot.merge a b = Snapshot.merge b a);
  Alcotest.(check int) "all series present" 6 (List.length l)

let test_snapshot_relabel () =
  let reg = Registry.create () in
  Counter.incr (Registry.counter reg "plain");
  Counter.incr (Registry.counter reg ~labels:[ ("shard", "9") ] "owned");
  let s = Snapshot.relabel ("shard", "2") (Registry.snapshot reg) in
  (match Snapshot.find ~labels:[ ("shard", "2") ] s "plain" with
  | Some _ -> ()
  | None -> Alcotest.fail "plain metric should gain the label");
  match Snapshot.find ~labels:[ ("shard", "9") ] s "owned" with
  | Some _ -> ()
  | None -> Alcotest.fail "existing shard label must be preserved"

(* --- snapshot JSON: samples, duplicates, prometheus -------------------- *)

let test_snapshot_samples_round_trip () =
  let reg = Registry.create () in
  observe_all (Registry.histogram reg "lat") [ 0.25; 0.5; 4.0 ];
  let snap = Registry.snapshot reg in
  (match snap with
  | [ { Snapshot.value = Snapshot.Summary s; _ } ] ->
      Alcotest.(check int) "samples exported" 3 (Array.length s.Histogram.samples)
  | _ -> Alcotest.fail "expected one summary");
  match Snapshot.of_json (Snapshot.to_json snap) with
  | Ok snap' -> Alcotest.(check bool) "samples survive round trip" true (snap = snap')
  | Error e -> Alcotest.failf "of_json failed: %s" e

let test_snapshot_rejects_duplicates () =
  let dup =
    Json.Obj
      [ ("schema", Json.Str "ppj.obs/1");
        ( "metrics",
          Json.List
            [ Json.Obj
                [ ("name", Json.Str "n");
                  ("labels", Json.Obj [ ("a", Json.Str "1") ]);
                  ("kind", Json.Str "counter");
                  ("value", Json.Int 1)
                ];
              Json.Obj
                [ ("name", Json.Str "n");
                  ("labels", Json.Obj [ ("a", Json.Str "1") ]);
                  ("kind", Json.Str "counter");
                  ("value", Json.Int 2)
                ]
            ] )
      ]
  in
  match Snapshot.of_json dup with
  | Error e -> Alcotest.(check bool) "names the duplicate" true (String.length e > 0)
  | Ok _ -> Alcotest.fail "duplicate (name,labels) accepted"

let snapshot_gen =
  (* Random well-formed snapshots, including merged/prometheus shapes:
     label sets with shard labels, counters, gauges, and summaries with
     sample arrays. *)
  let open QCheck.Gen in
  let name = oneofl [ "net.server.joins"; "store.epoch"; "lat.seconds"; "pad_slots"; "x" ] in
  let labels =
    oneof
      [ return [];
        map (fun k -> [ ("shard", string_of_int k) ]) (int_range 0 7);
        map (fun (k, r) -> [ ("region", r); ("shard", string_of_int k) ])
          (pair (int_range 0 7) (oneofl [ "heap"; "scratch" ]))
      ]
  in
  let metric =
    map
      (fun ((n, ls), vs) ->
        let reg = Registry.create () in
        (match vs with
        | `C v -> Counter.incr (Registry.counter reg ~labels:ls n) ~by:v
        | `G v -> Registry.set_gauge reg ~labels:ls n v
        | `S obs -> observe_all (Registry.histogram reg ~labels:ls n) obs);
        Registry.snapshot reg)
      (pair (pair name labels)
         (oneof
            [ map (fun v -> `C v) (int_range 0 1000);
              map (fun v -> `G v) (float_range (-1e3) 1e3);
              map (fun o -> `S o) (list_size (int_range 1 40) (float_range 0. 100.))
            ]))
  in
  map
    (fun parts -> List.fold_left Snapshot.union Snapshot.empty parts)
    (list_size (int_range 0 10) metric)

let test_snapshot_fuzz_round_trip_and_prometheus () =
  let cell =
    QCheck.Test.make_cell ~count:200 ~name:"snapshot fuzz"
      (QCheck.make snapshot_gen) (fun snap ->
        (match Snapshot.of_json (Snapshot.to_json snap) with
        | Ok snap' -> snap = snap'
        | Error _ -> false)
        &&
        (* exposition must be total and well-typed on anything we emit *)
        let prom = Snapshot.to_prometheus snap in
        (snap = [] && prom = "") || String.length prom > 0)
  in
  QCheck.Test.check_cell_exn ~rand:(Random.State.make [| 90 |]) cell

let test_prometheus_format () =
  let reg = Registry.create () in
  Counter.incr (Registry.counter reg ~labels:[ ("alg", "alg\"5\"") ] "net.joins") ~by:2;
  Registry.set_gauge reg "build.info" 1.;
  observe_all (Registry.histogram reg "lat.seconds") [ 0.5; 1.5 ];
  let prom = Snapshot.to_prometheus (Registry.snapshot reg) in
  List.iter
    (fun needle ->
      let n = String.length needle and m = String.length prom in
      let rec go i = i + n <= m && (String.sub prom i n = needle || go (i + 1)) in
      Alcotest.(check bool) (Printf.sprintf "contains %s" needle) true (n = 0 || go 0))
    [ "# TYPE ppj_build_info gauge";
      "ppj_build_info 1";
      "# TYPE ppj_net_joins counter";
      {|ppj_net_joins{alg="alg\"5\""} 2|};
      "# TYPE ppj_lat_seconds summary";
      {|ppj_lat_seconds{quantile="0.5"}|};
      "ppj_lat_seconds_count 2"
    ]

let () =
  Alcotest.run "obs"
    [ ( "counter",
        [ Alcotest.test_case "basics" `Quick test_counter_basics;
          Alcotest.test_case "rejects negative" `Quick test_counter_rejects_negative
        ] );
      ( "histogram",
        [ Alcotest.test_case "percentiles 1..100" `Quick test_histogram_percentiles;
          Alcotest.test_case "single observation" `Quick test_histogram_single_observation;
          Alcotest.test_case "empty" `Quick test_histogram_empty;
          Alcotest.test_case "rejects non-finite" `Quick test_histogram_rejects_non_finite;
          Alcotest.test_case "sorts negatives" `Quick test_histogram_sorts_negatives;
          Alcotest.test_case "reservoir cap" `Quick test_histogram_reservoir_cap;
          Alcotest.test_case "reservoir deterministic" `Quick test_histogram_reservoir_deterministic;
          Alcotest.test_case "below cap exact" `Quick test_histogram_below_cap_is_exact
        ] );
      ( "span",
        [ Alcotest.test_case "measures elapsed" `Quick test_span_measures_elapsed;
          Alcotest.test_case "records on raise" `Quick test_span_records_on_raise
        ] );
      ( "registry",
        [ Alcotest.test_case "memoizes" `Quick test_registry_memoizes;
          Alcotest.test_case "label order" `Quick test_registry_label_order_is_identity;
          Alcotest.test_case "kind mismatch" `Quick test_registry_kind_mismatch;
          Alcotest.test_case "snapshot order-independent" `Quick test_snapshot_order_independent
        ] );
      ( "json",
        [ Alcotest.test_case "round trip" `Quick test_json_round_trip;
          Alcotest.test_case "float stays float" `Quick test_json_float_stays_float;
          Alcotest.test_case "parse errors" `Quick test_json_parse_errors;
          Alcotest.test_case "unicode escape" `Quick test_json_unicode_escape;
          Alcotest.test_case "random round trip" `Quick test_json_random_round_trip;
          Alcotest.test_case "truncated escapes" `Quick test_json_rejects_truncated_escapes;
          Alcotest.test_case "trailing garbage" `Quick test_json_rejects_trailing_garbage;
          Alcotest.test_case "nesting depth guard" `Quick test_json_nesting_depth;
          Alcotest.test_case "snapshot round trip" `Quick test_snapshot_json_round_trip;
          Alcotest.test_case "union second wins" `Quick test_snapshot_union_second_wins
        ] );
      ( "merge",
        [ Alcotest.test_case "snapshot values" `Quick test_snapshot_merge_values;
          Alcotest.test_case "kind mismatch raises" `Quick test_snapshot_merge_kind_mismatch_raises;
          Alcotest.test_case "disjoint union laws" `Quick test_snapshot_merge_disjoint_union_laws;
          Alcotest.test_case "relabel" `Quick test_snapshot_relabel
        ] );
      ( "export",
        [ Alcotest.test_case "samples round trip" `Quick test_snapshot_samples_round_trip;
          Alcotest.test_case "rejects duplicates" `Quick test_snapshot_rejects_duplicates;
          Alcotest.test_case "fuzz round trip + prometheus" `Quick test_snapshot_fuzz_round_trip_and_prometheus;
          Alcotest.test_case "prometheus format" `Quick test_prometheus_format
        ] )
    ]
