(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation, validates the closed forms against the executable
   algorithms, and runs Bechamel microbenches.

     dune exec bench/main.exe                              # everything
     dune exec bench/main.exe fig5.2                       # one experiment
     dune exec bench/main.exe -- measured --json out.json  # machine-readable export

   Experiments: tab5.1 tab5.2 tab5.3 fig4.1 sec4.6.5 fig5.1 fig5.2
   fig5.3 fig5.4 measured scaling parallel shard aggregate ablation
   oram equijoin netjoin chaos recovery loadtest crypto bechamel.
   Set PPJ_CSV_DIR to also emit plottable CSV for the figures.
   [--json PATH] dumps the metrics registry (per-region transfer
   counters, model-vs-measured gauges, per-experiment wall-clock spans)
   as JSON; if PATH is a directory a BENCH_<timestamp>.json is created
   inside it.  [--deterministic] pins generated_at_unix to
   $PPJ_BENCH_EPOCH (default 0) so committed baselines diff cleanly.
   Schema: DESIGN.md. *)

open Ppj_core
module W = Ppj_relation.Workload
module P = Ppj_relation.Predicate
module Rng = Ppj_crypto.Rng
module Shard = Ppj_shard
module Obs = Ppj_obs

(* Experiments record into this registry; [--json PATH] dumps it (plus
   the run manifest) as a BENCH_*.json file — see DESIGN.md for the
   schema. *)
let registry = Obs.Registry.default

(* Flight recorder shared by the networked experiments; its span tree is
   exported as the "trace" section of the JSON document. *)
let recorder = Obs.Recorder.create ~name:"bench" ()

(* The chaos soak's server records apart from its clients: a corrupted
   attest frame hands the server a mangled trace id, which must not
   rename the clients' items.  A chaos export merges it into "trace". *)
let chaos_server_recorder = Obs.Recorder.create ~name:"bench-chaos-server" ()

let header title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

(* When PPJ_CSV_DIR is set, figure experiments also emit plottable CSV. *)
let csv name header rows =
  match Sys.getenv_opt "PPJ_CSV_DIR" with
  | None -> ()
  | Some dir ->
      let path = Filename.concat dir (name ^ ".csv") in
      let oc = open_out path in
      output_string oc (header ^ "\n");
      List.iter (fun r -> output_string oc (String.concat "," r ^ "\n")) rows;
      close_out oc;
      Printf.printf "(wrote %s)\n" path

let row fmt = Printf.printf fmt

(* The paper's Table 5.2 settings. *)
let settings = [ (1, 640_000, 6_400, 64); (2, 640_000, 6_400, 256); (3, 2_560_000, 25_600, 256) ]

(* Scaled-down setting for executable (measured) runs. *)
let measured_workload ?(seed = 2024) () =
  let rng = Rng.create seed in
  let a, b = W.equijoin_pair rng ~na:40 ~nb:60 ~matches:24 ~max_multiplicity:3 in
  (a, b)

let measured_instance ?(m = 4) ?(seed = 2024) () =
  let a, b = measured_workload ~seed () in
  Instance.create ~m ~seed:31 ~predicate:(P.equijoin2 "key" "key") [ a; b ]

(* --- Table 5.2 --- *)

let tab52 () =
  header "Table 5.2: settings of L, S and M";
  row "%-10s %12s %12s %8s\n" "setting" "L" "S" "M";
  List.iter (fun (i, l, s, m) -> row "%-10d %12d %12d %8d\n" i l s m) settings

(* --- Table 5.1 --- *)

let tab51 () =
  header "Table 5.1: privacy preserving level vs communication cost";
  row "%-12s %-18s %s\n" "algorithm" "privacy level" "communication cost";
  row "%-12s %-18s %s\n" "Algorithm 4" "100%"
    "2L + (L-S)/D (S+D) log2^2(S+D)   [Eqn 5.2]";
  row "%-12s %-18s %s\n" "Algorithm 5" "100%" "S + ceil(S/M) L                  [Eqn 5.3]";
  row "%-12s %-18s %s\n" "Algorithm 6" "(1-eps) x 100%"
    "2L + ceil(L/n*) M + filter       [Eqn 5.7]";
  row "\nEvaluated at each setting (eps = 1e-20 for Algorithm 6):\n";
  row "%-10s %14s %14s %14s\n" "setting" "Alg 4" "Alg 5" "Alg 6";
  List.iter
    (fun (i, l, s, m) ->
      row "%-10d %14.3e %14.3e %14.3e\n" i (Cost.alg4 ~l ~s) (Cost.alg5 ~l ~s ~m)
        (Cost.alg6 ~l ~s ~m ~eps:1e-20))
    settings

(* --- Table 5.3 --- *)

let tab53 () =
  header "Table 5.3: communication costs (tuples) - reproduced vs paper";
  let paper =
    [ ("SMC [32]", [ 1.1e10; 1.1e10; 4.5e10 ]);
      ("Algorithm 4", [ 2.3e8; 2.3e8; 1.2e9 ]);
      ("Algorithm 5", [ 6.4e7; 1.6e7; 2.6e8 ]);
      ("Alg 6 (1e-20)", [ 7.4e6; 3.4e6; 1.8e7 ]);
      ("Alg 6 (1e-10)", [ 4.6e6; 2.8e6; 1.5e7 ])
    ]
  in
  let ours =
    [ (fun l s _ -> Cost.smc ~l ~s ());
      (fun l s _ -> Cost.alg4 ~l ~s);
      (fun l s m -> Cost.alg5 ~l ~s ~m);
      (fun l s m -> Cost.alg6 ~l ~s ~m ~eps:1e-20);
      (fun l s m -> Cost.alg6 ~l ~s ~m ~eps:1e-10)
    ]
  in
  row "%-16s" "";
  List.iter (fun (i, _, _, _) -> row "   %8s %d %9s" "setting" i "") settings;
  row "\n%-16s" "";
  List.iter (fun _ -> row "  %10s %10s" "ours" "paper") settings;
  row "\n";
  List.iter2
    (fun (name, paper_vals) f ->
      row "%-16s" name;
      List.iter2
        (fun (_, l, s, m) pv -> row "  %10.2e %10.2e" (f l s m) pv)
        settings paper_vals;
      row "\n")
    paper ours;
  row "\nCost reduction of Algorithm 6 (1e-20) vs Algorithm 5 (paper: 88%% / 79%% / 93%%):\n";
  List.iter
    (fun (i, l, s, m) ->
      row "  setting %d: %.0f%%\n" i
        (100. *. (1. -. (Cost.alg6 ~l ~s ~m ~eps:1e-20 /. Cost.alg5 ~l ~s ~m))))
    settings

(* --- Figure 4.1 --- *)

let fig41 () =
  header "Figure 4.1: performance relationship among Algorithms 1, 2, 3";
  let b = 100_000 in
  let alphas = [ 1e-5; 1e-4; 1e-3; 1e-2; 1e-1; 0.5; 1. ] in
  let gammas = [ 1; 2; 4; 8; 32; 128; 512 ] in
  let letter = function Cost.A1 -> "1" | Cost.A2 -> "2" | Cost.A3 -> "3" in
  let grid winner title =
    row "\n%s (|B| = %d); rows: alpha = N/|B|, cols: gamma\n" title b;
    row "%10s" "";
    List.iter (fun g -> row " %5d" g) gammas;
    row "\n";
    List.iter
      (fun alpha ->
        row "%10.0e" alpha;
        List.iter
          (fun gamma -> row " %5s" (letter (winner ~b ~alpha ~gamma:(float_of_int gamma))))
          gammas;
        row "\n")
      alphas
  in
  grid Cost.general_winner_at "General joins: cheapest of Algorithms 1 and 2";
  grid Cost.equijoin_winner_at "Equijoins: cheapest of Algorithms 1, 2 and 3";
  row "\nPaper's summary: gamma = 1 -> Algorithm 2; large gamma -> Algorithm 1\n";
  row "(general) or Algorithm 3 (equijoins); crossover near gamma = 4 for\n";
  row "minimum alpha, moving right as alpha grows.\n"

(* --- Section 4.6.5 --- *)

let sec465 () =
  header "Section 4.6.5: Algorithm 1 vs secure function evaluation (bits)";
  let w = 64 in
  row "%-10s %8s %14s %14s %10s\n" "|B|" "N" "Alg 1 (bits)" "SFE (bits)" "ratio";
  List.iter
    (fun b ->
      let n = max 1 (b / 1000) in
      let a1 = Cost.alg1_bits ~a:b ~b ~n ~w in
      let sfe = Cost.sfe_bits ~b ~n ~w () in
      row "%-10d %8d %14.3e %14.3e %10.0fx\n" b n a1 sfe (sfe /. a1))
    [ 1_000; 10_000; 100_000; 1_000_000 ];
  row "\nExecutable comparison at small scale (8x8 equijoin, 8-bit keys):\n";
  let rng = Rng.create 11 in
  let a, b = W.equijoin_pair rng ~na:8 ~nb:8 ~matches:6 ~max_multiplicity:2 in
  let keys r =
    Array.map
      (fun t -> Ppj_relation.Value.as_int (Ppj_relation.Tuple.get t "key") land 0xFF)
      r.Ppj_relation.Relation.tuples
  in
  let _, smc_cost = Ppj_smc.Protocol.equality_join ~seed:3 ~width:8 ~a:(keys a) ~b:(keys b) in
  let inst = Instance.create ~m:4 ~seed:3 ~predicate:(P.equijoin2 "key" "key") [ a; b ] in
  let r = Algorithm2.run inst ~n:2 () in
  let coproc_bits = r.Report.transfers * 8 * Instance.out_width inst in
  row "  garbled circuits + OT : %9d bits (%d PK ops, %d AND gates)\n"
    smc_cost.Ppj_smc.Protocol.bits smc_cost.Ppj_smc.Protocol.pk_ops
    smc_cost.Ppj_smc.Protocol.and_gates;
  row "  Algorithm 2           : %9d bits (%d tuple transfers)\n" coproc_bits
    r.Report.transfers;
  row "  measured gap          : %.0fx\n"
    (float_of_int smc_cost.Ppj_smc.Protocol.bits /. float_of_int coproc_bits)

(* --- Figure 5.1 --- *)

let fig51 () =
  header "Figure 5.1: Algorithm 5 communication cost vs memory size M";
  let l, s = (640_000, 6_400) in
  row "analytic (L = %d, S = %d):\n" l s;
  row "%-8s %14s\n" "M" "cost (tuples)";
  let ms = [ 2; 4; 8; 16; 32; 64; 128; 256; 512; 1024; 3200; 6400 ] in
  List.iter (fun m -> row "%-8d %14.4e\n" m (Cost.alg5 ~l ~s ~m)) ms;
  csv "fig5.1" "M,cost"
    (List.map (fun m -> [ string_of_int m; Printf.sprintf "%.6e" (Cost.alg5 ~l ~s ~m) ]) ms);
  row "\nmeasured (L = 2400, S = 24):\n";
  row "%-8s %14s %14s\n" "M" "measured" "formula";
  List.iter
    (fun m ->
      let inst = measured_instance ~m () in
      let r = Algorithm5.run inst in
      row "%-8d %14d %14.0f\n" m r.Report.transfers (Cost.alg5 ~l:2400 ~s:24 ~m))
    [ 1; 2; 4; 8; 24 ]

(* --- Figure 5.2 --- *)

let fig52 () =
  header "Figure 5.2: Algorithm 6 communication cost vs epsilon";
  let l, s, m = (640_000, 6_400, 64) in
  row "analytic (L = %d, S = %d, M = %d):\n" l s m;
  row "%-10s %10s %12s %14s\n" "eps" "n*" "segments" "cost (tuples)";
  let e10s = [ 60; 50; 40; 30; 20; 10; 5; 2; 1 ] in
  List.iter
    (fun e10 ->
      let eps = 10. ** float_of_int (-e10) in
      let n_star = Hypergeom.n_star ~l ~s ~m ~eps in
      row "1e-%-7d %10d %12d %14.4e\n" e10 n_star (Params.segments ~l ~n_star)
        (Cost.alg6 ~l ~s ~m ~eps))
    e10s;
  csv "fig5.2" "eps,n_star,cost"
    (List.map
       (fun e10 ->
         let eps = 10. ** float_of_int (-e10) in
         [ Printf.sprintf "1e-%d" e10;
           string_of_int (Hypergeom.n_star ~l ~s ~m ~eps);
           Printf.sprintf "%.6e" (Cost.alg6 ~l ~s ~m ~eps)
         ])
       e10s);
  row "\nmeasured (L = 2400, S = 24, M = 4):\n";
  row "%-10s %8s %12s %12s\n" "eps" "n*" "transfers" "blemished";
  List.iter
    (fun eps ->
      let inst = measured_instance ~m:4 () in
      let r, st = Algorithm6.run inst ~eps () in
      row "%-10.0e %8d %12d %12b\n" eps st.Algorithm6.n_star r.Report.transfers
        st.Algorithm6.blemished)
    [ 1e-12; 1e-9; 1e-6; 1e-3 ]

(* --- Figure 5.3 --- *)

let fig53 () =
  header "Figure 5.3: Algorithm 6 communication cost vs memory M (eps = 1e-20)";
  let l, s = (640_000, 6_400) in
  row "%-8s %10s %14s\n" "M" "n*" "cost (tuples)";
  let ms = [ 8; 16; 32; 64; 128; 256; 512; 1024; 2048; 4096; 6400 ] in
  List.iter
    (fun m ->
      let n_star = if m >= s then l else Hypergeom.n_star ~l ~s ~m ~eps:1e-20 in
      row "%-8d %10d %14.4e\n" m n_star (Cost.alg6 ~l ~s ~m ~eps:1e-20))
    ms;
  csv "fig5.3" "M,cost"
    (List.map
       (fun m -> [ string_of_int m; Printf.sprintf "%.6e" (Cost.alg6 ~l ~s ~m ~eps:1e-20) ])
       ms)

(* --- Figure 5.4 --- *)

let fig54 () =
  header "Figure 5.4: Algorithm 6 cost (log10) vs epsilon, all settings";
  row "%-10s %14s %14s %14s\n" "eps" "setting 1" "setting 2" "setting 3";
  let e10s = [ 60; 50; 40; 30; 20; 15; 10; 5; 2; 1 ] in
  List.iter
    (fun e10 ->
      let eps = 10. ** float_of_int (-e10) in
      row "1e-%-7d" e10;
      List.iter
        (fun (_, l, s, m) -> row " %14.3f" (Float.log10 (Cost.alg6 ~l ~s ~m ~eps)))
        settings;
      row "\n")
    e10s;
  csv "fig5.4" "eps,log10_setting1,log10_setting2,log10_setting3"
    (List.map
       (fun e10 ->
         let eps = 10. ** float_of_int (-e10) in
         Printf.sprintf "1e-%d" e10
         :: List.map
              (fun (_, l, s, m) -> Printf.sprintf "%.4f" (Float.log10 (Cost.alg6 ~l ~s ~m ~eps)))
              settings)
       e10s);
  row "\n(The smaller-memory setting 1 curve falls fastest: trading privacy\n";
  row "is most profitable when M is small relative to S - Section 5.4.)\n"

(* --- Measured vs formula --- *)

(* Documented tolerance bands on measured/formula (DESIGN.md): algorithms
   whose formulas count the sequential scans exactly sit close to 1;
   those running power-of-two-padded sorting networks sit above the
   paper's big-O-style approximations by a bounded factor. *)
let exact_band = (0.9, 2.0)
let padded_band = (0.9, 4.0)

let measured () =
  header "Formula vs measured transfer counts (L = 2400 scaled setting)";
  row "%-14s %12s %14s %9s %6s\n" "algorithm" "measured" "formula" "ratio" "band";
  let n = 3 in
  let runs =
    [ ( "alg1", "Algorithm 1", padded_band,
        fun () ->
          let i = measured_instance () in
          (i, Algorithm1.run i ~n, Cost.alg1 ~a:40 ~b:60 ~n) );
      ( "alg1v", "Alg 1 variant", padded_band,
        fun () ->
          let i = measured_instance () in
          (i, Algorithm1.Variant.run i ~n, Cost.alg1_variant ~a:40 ~b:60) );
      ( "alg2", "Algorithm 2", exact_band,
        fun () ->
          let i = measured_instance ~m:2 () in
          (i, Algorithm2.run i ~n (), Cost.alg2 ~a:40 ~b:60 ~n ~m:2 ()) );
      ( "alg3", "Algorithm 3", exact_band,
        fun () ->
          let i = measured_instance () in
          (i, Algorithm3.run i ~n ~attr_a:"key" ~attr_b:"key" (), Cost.alg3 ~a:40 ~b:60 ~n ()) );
      ( "alg4", "Algorithm 4", padded_band,
        fun () ->
          let i = measured_instance () in
          (i, Algorithm4.run i (), Cost.alg4 ~l:2400 ~s:24) );
      ( "alg5", "Algorithm 5", exact_band,
        fun () ->
          let i = measured_instance () in
          (i, Algorithm5.run i, Cost.alg5 ~l:2400 ~s:24 ~m:4) );
      ( "alg6", "Algorithm 6", padded_band,
        fun () ->
          let i = measured_instance () in
          let r, st = Algorithm6.run i ~eps:1e-9 () in
          (i, r, Cost.alg6_given ~l:2400 ~s:24 ~m:4 ~n_star:st.Algorithm6.n_star) );
      ( "alg7", "Algorithm 7*", exact_band,
        fun () ->
          let i = measured_instance () in
          (i, fst (Algorithm7.run i ~attr_a:"key" ~attr_b:"key"), Cost.alg7 ~a:40 ~b:60 ~s:24) )
    ]
  in
  let misses = ref [] in
  List.iter
    (fun (tag, name, (lo, hi), run) ->
      let inst, r, formula = run () in
      let ratio = float_of_int r.Report.transfers /. formula in
      let ok = ratio >= lo && ratio <= hi in
      let labels = [ ("alg", tag) ] in
      Ppj_scpu.Coprocessor.observe ~labels (Instance.co inst) registry;
      Ppj_scpu.Host.observe ~labels (Ppj_scpu.Coprocessor.host (Instance.co inst)) registry;
      Obs.Registry.set_gauge ~labels registry "bench.measured.transfers"
        (float_of_int r.Report.transfers);
      Obs.Registry.set_gauge ~labels registry "bench.formula.transfers" formula;
      Obs.Registry.set_gauge ~labels registry "bench.ratio" ratio;
      Obs.Registry.set_gauge ~labels registry "bench.within_tolerance" (if ok then 1. else 0.);
      row "%-14s %12d %14.0f %9.2fx %6s\n" name r.Report.transfers formula ratio
        (if ok then "ok" else "FAIL");
      if not ok then misses := name :: !misses)
    runs;
  row "(* Algorithm 7 is this repo's sort-based PK-FK equijoin extension)\n";
  row "\nRatios near 1 validate the closed forms; Algorithms 1/4/6 run\n";
  row "power-of-two-padded sorting networks, so their measured counts sit\n";
  row "above the paper's big-O-style approximations by a bounded factor\n";
  row "(band: exact formulas %.2g-%.2g, padded networks %.2g-%.2g).\n" (fst exact_band)
    (snd exact_band) (fst padded_band) (snd padded_band);
  if !misses <> [] then
    failwith ("measured: outside the band: " ^ String.concat ", " (List.rev !misses))

(* --- Parallelism --- *)

let parallel () =
  header "Extension (Sections 4.4.4, 5.3.5): multi-coprocessor speedup";
  let a, b = measured_workload () in
  let pred = P.equijoin2 "key" "key" in
  row "%-12s" "P";
  List.iter (fun p -> row " %10d" p) [ 1; 2; 4; 8 ];
  row "\n";
  List.iter
    (fun (tag, name, inner) ->
      row "%-12s" name;
      List.iter
        (fun p ->
          let config =
            { Shard.Coordinator.p; m = 4; seed = 5; inner; strategy = Shard.Partitioner.Replicate }
          in
          match
            Shard.Coordinator.run_local ~backend:Shard.Coordinator.Sequential config
              ~predicate:pred [ a; b ]
          with
          | Error e -> failwith ("parallel bench: " ^ e)
          | Ok o ->
              Obs.Registry.set_gauge
                ~labels:[ ("alg", tag); ("p", string_of_int p) ]
                registry "bench.parallel.speedup" o.Shard.Coordinator.speedup;
              row " %10.2f" o.Shard.Coordinator.speedup)
        [ 1; 2; 4; 8 ];
      row "\n")
    [ ("alg4", "Algorithm 4", Service.Alg4);
      ("alg5", "Algorithm 5", Service.Alg5);
      ("alg6", "Algorithm 6", Service.Alg6 { eps = 1e-9 })
    ];
  row "(speedup = total transfers / slowest coprocessor's transfers;\n";
  row " Shard.Coordinator.run_local, sequential backend, S learned untraced)\n"

(* --- Sharded coordinator --- *)

(* End-to-end run of the lib/shard coordinator: replicate partitioning
   over p in-process shards executing Algorithm 4 slices, pad-to-max
   oblivious merge.  Every shard's transfer count must equal its exact
   closed form, and the merge's comparator count its own, so a
   trace-shape change fails the run instead of drifting inside a band.
   The transfer-model speedup (total transfers / slowest shard) is
   deterministic and hardware-independent, as in the parallel
   experiment; wall-clock seconds per p, one run each, are recorded
   with the core count, informationally.  Warm repetitions would give
   steadier seconds, but every run adds its padding to the sorts'
   process-wide oblivious.sort.pad_slots_total, which would then count
   the repetitions too (ROADMAP item 2). *)
let shard () =
  header "Sharded coordinator (lib/shard): one submit across p shards";
  let a, b = measured_workload () in
  let pred = P.equijoin2 "key" "key" in
  let l = 2400 and s = 24 in
  (* Per-shard closed form for Algorithm 4's slice k of p: the slice
     scans its l_k = |slice of L| pairs twice and runs the filter
     against the pad-to-max public budget mu = min(l_k, S). *)
  let formula ~p k =
    let lo = k * l / p and hi = (k + 1) * l / p in
    let lk = hi - lo in
    (2 * lk) + Cost.filter_exact ~omega:lk ~mu:(min lk s)
  in
  let cores = Shard.Domains_compat.cores () in
  Obs.Registry.set_gauge registry "bench.shard.cores" (float_of_int cores);
  row "(%d cores)\n" cores;
  row "%-4s %-12s %9s %9s %8s %6s  %s\n" "p" "backend" "seconds" "speedup" "merge" "exact"
    "per-shard transfers (measured/formula)";
  let misses = ref [] in
  List.iter
    (fun p ->
      let metrics = Shard.Metrics.create ~registry () in
      let config =
        { Shard.Coordinator.p; m = 4; seed = 5; inner = Service.Alg4;
          strategy = Shard.Partitioner.Replicate }
      in
      let t0 = Unix.gettimeofday () in
      match Shard.Coordinator.run_local ~metrics config ~predicate:pred [ a; b ] with
      | Error e -> failwith ("shard bench: " ^ e)
      | Ok o ->
          let seconds = Unix.gettimeofday () -. t0 in
          let labels = [ ("p", string_of_int p) ] in
          Obs.Registry.set_gauge ~labels registry "bench.shard.seconds" seconds;
          Obs.Registry.set_gauge ~labels registry "bench.shard.speedup"
            o.Shard.Coordinator.speedup;
          Obs.Registry.set_gauge
            ~labels:(("backend", o.Shard.Coordinator.backend) :: labels)
            registry "bench.shard.backend" 1.;
          let all_ok = ref true in
          let cells =
            Array.to_list o.Shard.Coordinator.per_shard_transfers
            |> List.mapi (fun k measured ->
                   let f = formula ~p k in
                   if measured <> f then begin
                     all_ok := false;
                     misses := Printf.sprintf "p=%d shard %d" p k :: !misses
                   end;
                   let labels = ("shard", string_of_int k) :: labels in
                   Obs.Registry.set_gauge ~labels registry "bench.shard.transfers"
                     (float_of_int measured);
                   Obs.Registry.set_gauge ~labels registry "bench.shard.formula" (float_of_int f);
                   Obs.Registry.set_gauge ~labels registry "bench.shard.ratio"
                     (float_of_int measured /. float_of_int f);
                   Printf.sprintf "%d/%d" measured f)
          in
          let comparators = o.Shard.Coordinator.merge.Shard.Merge.comparators in
          if comparators <> Cost.merge_exact ~p ~l ~s then begin
            all_ok := false;
            misses := Printf.sprintf "p=%d merge" p :: !misses
          end;
          Obs.Registry.set_gauge ~labels registry "bench.shard.within_tolerance"
            (if !all_ok then 1. else 0.);
          row "%-4d %-12s %9.4f %8.2fx %8d %6s  %s\n" p o.Shard.Coordinator.backend seconds
            o.Shard.Coordinator.speedup comparators
            (if !all_ok then "ok" else "FAIL")
            (String.concat " " cells))
    [ 1; 2; 4 ];
  row "(speedup = total transfers / slowest shard; per-shard formula, exact:\n";
  row " 2*l_k + filter_exact(l_k, min(l_k, S)); merge comparators, exact:\n";
  row " Cost.merge_exact = comparators(next_pow2(p * min(ceil(l/p), S))).\n";
  row " CI gates on bench.shard.speedup{p=4} >= 1.5 in BENCH_shard.json.)\n";
  if !misses <> [] then
    failwith
      ("shard: counts differ from the exact forms: " ^ String.concat ", " (List.rev !misses))

(* --- Aggregation ablation --- *)

let aggregate () =
  header "Extension (Ch. 6): aggregation without materialising the join";
  let inst = measured_instance () in
  let count, agg = Aggregate.count inst in
  let full = Algorithm5.run (measured_instance ()) in
  row "COUNT over the join      : %d\n" count;
  row "aggregation transfers    : %d (L reads + 1 write)\n" agg.Report.transfers;
  row "materialised join (Alg 5): %d transfers\n" full.Report.transfers;
  row "saving                   : %.1fx\n"
    (float_of_int full.Report.transfers /. float_of_int agg.Report.transfers)

(* --- Design-choice ablations --- *)

let ablation () =
  header "Ablations: sorting network, blocking of A, fixed-time padding";
  row "\n1. Oblivious sorting network (comparators per network):\n";
  row "%-8s %12s %12s %8s\n" "n" "bitonic" "odd-even" "saving";
  List.iter
    (fun n ->
      let b = Ppj_oblivious.Bitonic.comparator_count n in
      let o = Ppj_oblivious.Oddeven.comparator_count n in
      row "%-8d %12d %12d %7.0f%%\n" n b o (100. *. (1. -. (float_of_int o /. float_of_int b))))
    [ 16; 64; 256; 1024; 4096 ];
  let run_net network =
    (Algorithm4.run (measured_instance ()) ~network ()).Report.transfers
  in
  row "Algorithm 4 end-to-end (L = 2400): bitonic %d vs odd-even %d transfers\n"
    (run_net Ppj_oblivious.Sort.Bitonic)
    (run_net Ppj_oblivious.Sort.Odd_even);
  row "(The paper standardises on bitonic [7]; Batcher's odd-even merge is\n";
  row " equally oblivious and strictly cheaper - a free Chapter-6 win.)\n";

  row "\n2. Blocking of A (Section 4.4.3), measured transfers:\n";
  let mk_inst m = measured_instance ~m () in
  let n = 3 in
  let base_small = (Algorithm2.run (mk_inst 3) ~n ()).Report.transfers in
  let blocked_small = (Algorithm2.Blocked.run (mk_inst 3) ~n ~k:1 ~n_prime:2).Report.transfers in
  let base_big = (Algorithm2.run (mk_inst 12) ~n ()).Report.transfers in
  let blocked_big = (Algorithm2.Blocked.run (mk_inst 12) ~n ~k:2 ~n_prime:3).Report.transfers in
  row "  gamma > 1 (M = 3): non-blocking %d vs blocked(K=1,N'=2) %d - blocking loses\n"
    base_small blocked_small;
  row "  gamma = 1 (M = 12): non-blocking %d vs blocked(K=2,N'=3) %d - blocking wins\n"
    base_big blocked_big;
  row "  (the paper's never-helps claim is scoped to gamma > 1; see DESIGN.md)\n";

  row "\n3. Fixed Time principle (Section 3.4.3), naive join cycle counts:\n";
  let cycles fixed_time matches =
    let rng = Rng.create 71 in
    let a, b = W.equijoin_pair rng ~na:20 ~nb:30 ~matches ~max_multiplicity:3 in
    let inst =
      Instance.create ~fixed_time ~m:3 ~seed:1 ~predicate:(P.equijoin2 "key" "key") [ a; b ]
    in
    (Unsafe.naive_nested_loop inst).Report.cycles
  in
  row "  %-24s %12s %12s\n" "" "S = 0" "S = 24";
  row "  %-24s %12d %12d   <- S readable from timing\n" "unpadded" (cycles false 0)
    (cycles false 24);
  row "  %-24s %12d %12d   <- constant\n" "padded (fixed time)" (cycles true 0)
    (cycles true 24)

(* --- Equijoin extension sweep --- *)

let equijoin_ext () =
  header "Extension: sort-based oblivious PK-FK equijoin (Algorithm 7) vs 4/5";
  row "%-10s %12s %12s %12s %12s\n" "|A|=|B|" "L" "Alg 4" "Alg 5 (M=4)" "Alg 7";
  List.iter
    (fun n ->
      let rng = Rng.create (1000 + n) in
      let a, b = W.equijoin_pair rng ~na:n ~nb:n ~matches:(n / 2) ~max_multiplicity:2 in
      let pred = P.equijoin2 "key" "key" in
      let mk () = Ppj_core.Instance.create ~m:4 ~seed:3 ~predicate:pred [ a; b ] in
      let r4 = (Algorithm4.run (mk ()) ()).Report.transfers in
      let r5 = (Algorithm5.run (mk ())).Report.transfers in
      let r7 = (fst (Algorithm7.run (mk ()) ~attr_a:"key" ~attr_b:"key")).Report.transfers in
      row "%-10d %12d %12d %12d %12d\n" n (n * n) r4 r5 r7)
    [ 10; 20; 40; 80 ];
  row "\nAlgorithm 7 scales as (|A|+|B|) log^2 instead of |A||B| - the repo's\n";
  row "answer to the thesis's open question about faster equijoins.\n"

(* --- ORAM comparison --- *)

let oram () =
  header "Why not generic ORAM? (square-root ORAM vs the bespoke algorithms)";
  let rng = Rng.create 4242 in
  let a, b = W.equijoin_pair rng ~na:12 ~nb:16 ~matches:10 ~max_multiplicity:3 in
  let pred = P.equijoin2 "key" "key" in
  (* Generic transform: run the naive nested loop but route every read of
     B through a read-only sqrt-ORAM, and emit an oTuple per comparison so
     the write pattern is fixed too (then filter, as Algorithm 4 does). *)
  let inst = Ppj_core.Instance.create ~m:4 ~seed:9 ~predicate:pred [ a; b ] in
  let co = Ppj_core.Instance.co inst in
  let host = Ppj_scpu.Coprocessor.host co in
  let b_vals =
    Array.init 16 (fun i -> Ppj_relation.Tuple.encode (Ppj_relation.Relation.get b i))
  in
  let oram_store = Ppj_oblivious.Oram.create co ~values:b_vals in
  let (_ : Ppj_scpu.Host.t) =
    Ppj_scpu.Host.define_region host Ppj_scpu.Trace.Output ~size:(12 * 16)
  in
  let s = ref 0 in
  let pos = ref 0 in
  for ia = 0 to 11 do
    let ea = Ppj_scpu.Coprocessor.get co (Ppj_core.Instance.region_a inst) ia in
    for ib = 0 to 15 do
      let eb = Ppj_oblivious.Oram.read oram_store ib in
      let out =
        if Ppj_core.Instance.match2 inst ea eb then begin
          incr s;
          Ppj_core.Instance.join2 inst ea eb
        end
        else Ppj_core.Instance.decoy inst
      in
      Ppj_scpu.Coprocessor.put co Ppj_scpu.Trace.Output !pos out;
      incr pos
    done
  done;
  let buffer =
    Ppj_oblivious.Filter.run co ~src:Ppj_scpu.Trace.Output ~src_len:(12 * 16) ~mu:!s
      ~is_real:(fun o -> not (Ppj_relation.Decoy.is_decoy o))
      ~width:(Ppj_core.Instance.out_width inst) ()
  in
  Ppj_scpu.Host.persist host buffer ~count:!s;
  let oram_transfers = Ppj_scpu.Coprocessor.transfers co in
  (* The bespoke algorithm on the same join. *)
  let inst4 = Ppj_core.Instance.create ~m:4 ~seed:9 ~predicate:pred [ a; b ] in
  let r4 = Algorithm4.run inst4 () in
  row "join: |A| = 12, |B| = 16, S = %d\n" !s;
  row "generic ORAM transform : %7d transfers (sqrt-|B| shelter scan per read\n"
    oram_transfers;
  row "                          + re-permutation every %d reads)\n"
    (Ppj_oblivious.Oram.shelter_size oram_store);
  row "Algorithm 4 (bespoke)  : %7d transfers\n" r4.Report.transfers;
  row "overhead               : %.1fx — and the gap grows as sqrt(|B|):\n"
    (float_of_int oram_transfers /. float_of_int r4.Report.transfers);
  row "the paper's algorithms exploit the join's structure (sequential\n";
  row "scans + one oblivious filter) where a generic ORAM compiler pays\n";
  row "per-access, which is why bespoke beats generic here.\n"

(* --- Networked deployment --- *)

let netjoin () =
  header "Networked join (lib/net): wire overhead of the client/server path";
  let module Net = Ppj_net in
  let mac_key = "bench-mac-key" in
  (* Client and server share the bench registry, so every net.* counter
     and latency histogram lands in the BENCH_*.json export. *)
  let server = Net.Server.create ~registry ~recorder ~mac_key ~seed:5 () in
  let a, b = measured_workload () in
  let schema = W.keyed_schema () in
  let contract =
    { Ppj_scpu.Channel.contract_id = "bench-net-001";
      providers = [ "alice"; "bob" ];
      recipient = "carol";
      predicate = "eq(key,key)";
    }
  in
  let reactor = Net.Reactor.create server in
  let client () = Net.Client.create ~registry ~recorder (Net.Transport.loopback reactor) in
  let ok = function Ok v -> v | Error e -> failwith e in
  let submit id rel =
    let c = client () in
    ok
      (Net.Client.submit_relation c ~rng:(Rng.create (Hashtbl.hash id)) ~id ~mac_key ~contract
         ~schema rel);
    Net.Client.close c
  in
  Obs.Registry.span ~labels:[ ("phase", "net") ] registry "bench.netjoin.seconds" (fun () ->
      submit "alice" a;
      submit "bob" b;
      let c = client () in
      let _, tuples =
        ok
          (Net.Client.fetch_result c ~rng:(Rng.create 99) ~id:"carol" ~mac_key ~contract
             { Ppj_core.Service.m = 4; seed = 31; algorithm = Ppj_core.Service.Alg5 })
      in
      Net.Client.close c;
      row "results through the wire  : %d tuples\n" (List.length tuples));
  let count name =
    match Obs.Snapshot.find (Obs.Registry.snapshot registry) name with
    | Some { Obs.Snapshot.value = Obs.Snapshot.Counter n; _ } -> n
    | _ -> 0
  in
  let frames = count "net.client.frames.out" + count "net.client.frames.in" in
  let bytes = count "net.client.bytes.out" + count "net.client.bytes.in" in
  row "frames on the wire        : %d (%d bytes)\n" frames bytes;
  row "server sessions           : %d opened\n" (count "net.server.sessions.opened");
  let inst = measured_instance ~seed:2024 () in
  let r = Algorithm5.run inst in
  let tuple_bytes = r.Report.transfers * Instance.out_width inst in
  row "coprocessor transfers     : %d tuples (~%d payload bytes)\n" r.Report.transfers tuple_bytes;
  row "wire share                : %.4fx of the host<->coprocessor traffic\n"
    (float_of_int bytes /. float_of_int (max 1 tuple_bytes));
  row "(the network only ever carries sealed inputs and the sealed result;\n";
  row " the oTuple stream stays inside the service, so remote deployment\n";
  row " adds a vanishing fraction of the protocol's data movement)\n"

(* --- chaos soak: seeded fault plans against the networked service --- *)

let chaos () =
  header "Chaos soak: seeded fault plans against the client/server stack";
  let module Chaos = Ppj_net.Chaos in
  (* The chaos.* counters land in the shared registry, so a --json export
     of this experiment is the machine-readable soak verdict. *)
  let results =
    Obs.Registry.span ~labels:[ ("phase", "chaos") ] registry "bench.chaos.seconds" (fun () ->
        Chaos.soak ~registry ~seed0:1 ~runs:60
          (Chaos.printing (Chaos.wire ~recorder ~server_recorder:chaos_server_recorder)))
  in
  Chaos.pp_report ~name:"chaos" Format.std_formatter results;
  if (Chaos.tally results).Chaos.wrong > 0 then failwith "chaos soak produced a wrong answer"

(* --- loadtest: open-loop SLO harness over a real Unix socket --------- *)

let env_int name default =
  match Sys.getenv_opt name with Some s -> int_of_string s | None -> default

let env_float name default =
  match Sys.getenv_opt name with Some s -> float_of_string s | None -> default

(* The loadtest's server, run in a child process started on this
   executable with [--loadtest-server PATH]: a reactor loop sized for
   the whole burst, torn down by SIGTERM once the parent has its
   numbers.  Its flight recorder (when PPJ_LOADTEST_TRACE is set) is
   written on the way out — that file is the CI trace artifact.  The
   child is a fresh process rather than a fork because OCaml 5 refuses
   [Unix.fork] once a domain has been spawned, as [shard] does. *)
let loadtest_server path =
  let module Net = Ppj_net in
  let stopped = ref false in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> stopped := true));
  let trace_out = Sys.getenv_opt "PPJ_LOADTEST_TRACE" in
  let srv_recorder =
    match trace_out with
    | Some _ -> Some (Obs.Recorder.create ~name:"loadtest-server" ())
    | None -> None
  in
  (try
     let server =
       Net.Server.create ?recorder:srv_recorder ~mac_key:Net.Loadgen.mac_key ~seed:5 ()
     in
     let limits = { Net.Reactor.default_limits with max_conns = 4096; idle_timeout = 60. } in
     Net.Reactor.serve_unix
       (Net.Reactor.create ~limits server)
       ~path ~backlog:4096
       ~stop:(fun () -> !stopped)
       ()
   with _ -> ());
  match (trace_out, srv_recorder) with
  | Some file, Some r -> (
      try
        Out_channel.with_open_text file (fun oc ->
            Out_channel.output_string oc (Obs.Json.to_string (Obs.Recorder.to_perfetto r));
            Out_channel.output_char oc '\n')
      with Sys_error _ -> ())
  | _ -> ()

let loadtest () =
  header "Loadtest: open-loop concurrent sessions against the reactor server";
  let module Net = Ppj_net in
  let sessions = env_int "PPJ_LOADTEST_SESSIONS" 1200 in
  let min_concurrent = env_int "PPJ_LOADTEST_MIN_CONCURRENT" (min sessions 1000) in
  let p99_gate = env_float "PPJ_LOADTEST_P99_GATE" 120. in
  let rate = env_float "PPJ_LOADTEST_RATE" 0. in
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "ppj-loadtest-%d.sock" (Unix.getpid ()))
  in
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  let pid =
    Unix.create_process Sys.executable_name
      [| Sys.executable_name; "--loadtest-server"; path |]
      Unix.stdin Unix.stdout Unix.stderr
  in
  let stats =
    Fun.protect
      ~finally:(fun () ->
        (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
        try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
      (fun () ->
        let spec =
          { Net.Loadgen.default_spec with
            sessions;
            rate = (if rate <= 0. then infinity else rate);
          }
        in
        Obs.Registry.span ~labels:[ ("phase", "loadtest") ] registry
          "bench.loadtest.seconds" (fun () ->
            match Net.Loadgen.run ~registry ~spec ~path () with
            | Ok stats -> stats
            | Error e -> failwith ("loadtest: " ^ e)))
  in
  row "%s\n" (Format.asprintf "%a" Net.Loadgen.pp_stats stats);
  (* SLO gates: zero wrong answers, zero hangs, the promised
     concurrency actually reached, and p99 under the bar. *)
  if stats.Net.Loadgen.wrong > 0 then failwith "loadtest delivered a wrong answer";
  if stats.Net.Loadgen.hung > 0 then failwith "loadtest left sessions hung";
  if stats.Net.Loadgen.max_concurrent < min_concurrent then
    failwith
      (Printf.sprintf "loadtest peaked at %d concurrent sessions; needed >= %d"
         stats.Net.Loadgen.max_concurrent min_concurrent);
  if stats.Net.Loadgen.p99 > p99_gate then
    failwith
      (Printf.sprintf "loadtest p99 %.2fs exceeds the %.2fs gate" stats.Net.Loadgen.p99
         p99_gate);
  row "SLO gates               : wrong=0 hung=0 concurrent>=%d p99<=%.0fs  all met\n"
    min_concurrent p99_gate

(* --- Crypto hot path --- *)

let crypto_bench () =
  header "Crypto hot path: AES rounds, allocation-free OCB, streaming hash";
  let module Aes = Ppj_crypto.Aes in
  let module Block = Ppj_crypto.Block in
  let module Ocb = Ppj_crypto.Ocb in
  let module Hash = Ppj_crypto.Hash in
  let gauge ?(labels = []) name v =
    Obs.Registry.set_gauge ~labels:(("phase", "crypto") :: labels) registry name v
  in
  (* ops/sec; doubles the batch until the elapsed time dwarfs timer
     resolution, so the rate is stable without a fixed iteration count. *)
  let rate f =
    let rec go n =
      let t0 = Unix.gettimeofday () in
      for _ = 1 to n do
        f ()
      done;
      let dt = Unix.gettimeofday () -. t0 in
      if dt < 0.1 then go (2 * n) else float_of_int n /. dt
    in
    go 1024
  in
  let median l =
    let a = Array.of_list l in
    Array.sort compare a;
    a.(Array.length a / 2)
  in
  Obs.Registry.span ~labels:[ ("phase", "crypto") ] registry "bench.crypto.seconds" (fun () ->
      let raw_key = String.make 16 'k' in
      let key = Aes.expand raw_key in
      let buf = Bytes.make 16 '\x2a' in
      let blk = Block.of_string (String.make 16 '\x2a') in
      let kb = Bytes.of_string raw_key in
      let okey = Ocb.key_of_string raw_key in
      let nonce = String.make 16 'n' in
      let sizes = [ 16; 64; 256; 1024; 4096 ] in
      let ocb size =
        let src = Bytes.make size 'p' in
        let sealed = Bytes.create (size + Ocb.tag_length) in
        let opened = Bytes.create size in
        let msg = Bytes.to_string src in
        let mb f () = rate f *. float_of_int size /. 1e6 in
        let labels = [ ("size", string_of_int size) ] in
        [ ( "crypto.ocb.seal.mb_per_sec",
            labels,
            mb (fun () ->
                Ocb.seal_into okey ~nonce ~src ~src_pos:0 ~src_len:size ~dst:sealed ~dst_pos:0) );
          ( "crypto.ocb.open.mb_per_sec",
            labels,
            mb (fun () ->
                if
                  not
                    (Ocb.open_into okey ~nonce ~src:sealed ~src_pos:0
                       ~src_len:(size + Ocb.tag_length) ~dst:opened ~dst_pos:0)
                then failwith "bench: OCB tag rejected") );
          ( "crypto.ocb.string_api.mb_per_sec",
            labels,
            mb (fun () -> ignore (Ocb.encrypt okey ~nonce msg)) );
          (* the OCaml core, the path on CPUs without the AES
             instructions, timed on every CPU *)
          ( "crypto.ocb.portable.seal.mb_per_sec",
            labels,
            mb (fun () ->
                Ocb.Portable.seal_into okey ~nonce ~src ~src_pos:0 ~src_len:size ~dst:sealed
                  ~dst_pos:0) );
          ( "crypto.ocb.portable.open.mb_per_sec",
            labels,
            mb (fun () ->
                if
                  not
                    (Ocb.Portable.open_into okey ~nonce ~src:sealed ~src_pos:0
                       ~src_len:(size + Ocb.tag_length) ~dst:opened ~dst_pos:0)
                then failwith "bench: OCB tag rejected") )
        ]
      in
      let hash_msg = String.make 4096 'h' in
      let series =
        [ ( "crypto.aes.ttable.blocks_per_sec",
            [],
            fun () ->
              rate (fun () -> Aes.Table.encrypt_into key ~src:buf ~src_pos:0 ~dst:buf ~dst_pos:0)
          );
          ( "crypto.aes.reference.blocks_per_sec",
            [],
            fun () -> rate (fun () -> ignore (Aes.Reference.encrypt key blk)) );
          ( "crypto.aes.key_schedules_per_sec",
            [],
            fun () -> rate (fun () -> ignore (Aes.expand_bytes kb ~pos:0)) );
          (* the path every caller takes: the AES instructions where the
             CPU has them, else the T-table rounds again *)
          ( "crypto.aes.hw.blocks_per_sec",
            [],
            fun () ->
              rate (fun () -> Aes.encrypt_into key ~src:buf ~src_pos:0 ~dst:buf ~dst_pos:0) )
        ]
        @ List.concat_map ocb sizes
        @ [ ( "crypto.hash.mb_per_sec",
              [],
              fun () -> rate (fun () -> ignore (Hash.digest hash_msg)) *. 4096. /. 1e6 )
          ]
      in
      (* The whole list runs [passes] times in rotation and each gauge is
         the median of its passes: measuring one series at a time lets a
         slow stretch of the host land on a few series only. *)
      let passes = 5 in
      let samples = Array.make (List.length series) [] in
      for _ = 1 to passes do
        List.iteri (fun i (_, _, measure) -> samples.(i) <- measure () :: samples.(i)) series
      done;
      let medians =
        List.mapi (fun i (name, labels, _) -> ((name, labels), median samples.(i))) series
      in
      List.iter (fun ((name, labels), v) -> gauge ~labels name v) medians;
      let value name labels = List.assoc (name, labels) medians in
      let ttable = value "crypto.aes.ttable.blocks_per_sec" []
      and reference = value "crypto.aes.reference.blocks_per_sec" [] in
      let speedup = median (List.map2 ( /. ) samples.(0) samples.(1)) in
      gauge "crypto.aes.speedup_vs_reference" speedup;
      gauge "crypto.aes.hw" (if Aes.hardware then 1. else 0.);
      row "(medians of %d interleaved passes)\n" passes;
      row "AES-128 encrypt (dispatched): %12.3e blocks/s  (%s)\n"
        (value "crypto.aes.hw.blocks_per_sec" [])
        (if Aes.hardware then "AES instructions" else "no AES instructions: T-table");
      row "AES-128 encrypt (T-table)   : %12.3e blocks/s\n" ttable;
      row "AES-128 encrypt (reference) : %12.3e blocks/s\n" reference;
      row "T-table speedup             : %12.1fx %s\n" speedup
        (if speedup >= 5. then "(>= 5x: ok)" else "(< 5x: FAIL)");
      row "AES-128 key schedule        : %12.3e expands/s\n"
        (value "crypto.aes.key_schedules_per_sec" []);
      row "\n%-8s %12s %12s %16s %12s %12s\n" "bytes" "seal MB/s" "open MB/s" "string-API MB/s"
        "core seal" "core open";
      List.iter
        (fun size ->
          let labels = [ ("size", string_of_int size) ] in
          row "%-8d %12.1f %12.1f %16.1f %12.1f %12.1f\n" size
            (value "crypto.ocb.seal.mb_per_sec" labels)
            (value "crypto.ocb.open.mb_per_sec" labels)
            (value "crypto.ocb.string_api.mb_per_sec" labels)
            (value "crypto.ocb.portable.seal.mb_per_sec" labels)
            (value "crypto.ocb.portable.open.mb_per_sec" labels))
        sizes;
      row "\nMMO hash (4 KiB messages)   : %12.1f MB/s\n" (value "crypto.hash.mb_per_sec" []);
      row "\n(seal/open run in caller-reused buffers — the coprocessor's\n";
      row " per-transfer path, one C call per message where the CPU has the\n";
      row " AES instructions; the string API column pays the wrapper's\n";
      row " allocations; the core columns time the OCaml core, the path\n";
      row " without the instructions.  crypto.* gauges land in the --json export.)\n")

(* --- Bechamel microbenches --- *)

let bechamel () =
  header "Bechamel microbenchmarks (ns per run)";
  let open Bechamel in
  let open Toolkit in
  let aes_key = Ppj_crypto.Aes.expand (String.make 16 'k') in
  let block = Ppj_crypto.Block.of_string (String.make 16 'b') in
  let ocb_key = Ppj_crypto.Ocb.key_of_string (String.make 16 'k') in
  let nonce = String.make 16 'n' in
  let msg = String.make 96 'm' in
  let sort_input = Array.init 256 (fun i -> i * 7919 mod 1009) in
  let small ?(m = 4) () =
    let rng = Rng.create 5 in
    let a, b = W.equijoin_pair rng ~na:8 ~nb:12 ~matches:8 ~max_multiplicity:2 in
    Ppj_core.Instance.create ~m ~seed:3 ~predicate:(P.equijoin2 "key" "key") [ a; b ]
  in
  let tests =
    Test.make_grouped ~name:"ppj"
      [ Test.make ~name:"aes-block" (Staged.stage (fun () -> Ppj_crypto.Aes.encrypt aes_key block));
        Test.make ~name:"ocb-encrypt-96B"
          (Staged.stage (fun () -> Ppj_crypto.Ocb.encrypt ocb_key ~nonce msg));
        Test.make ~name:"mmo-hash-96B" (Staged.stage (fun () -> Ppj_crypto.Hash.digest msg));
        Test.make ~name:"bitonic-sort-256"
          (Staged.stage (fun () ->
               let a = Array.copy sort_input in
               Ppj_oblivious.Bitonic.sort_in_place compare a));
        Test.make ~name:"alg1-8x12" (Staged.stage (fun () -> Algorithm1.run (small ()) ~n:2));
        Test.make ~name:"alg2-8x12" (Staged.stage (fun () -> Algorithm2.run (small ()) ~n:2 ()));
        Test.make ~name:"alg3-8x12"
          (Staged.stage (fun () -> Algorithm3.run (small ()) ~n:2 ~attr_a:"key" ~attr_b:"key" ()));
        Test.make ~name:"alg4-8x12" (Staged.stage (fun () -> Algorithm4.run (small ()) ()));
        Test.make ~name:"alg5-8x12" (Staged.stage (fun () -> Algorithm5.run (small ())));
        Test.make ~name:"alg6-8x12"
          (Staged.stage (fun () -> Algorithm6.run (small ()) ~eps:1e-9 ()));
        Test.make ~name:"smc-eq-join-2x2"
          (Staged.stage (fun () ->
               Ppj_smc.Protocol.equality_join ~seed:1 ~width:8 ~a:[| 1; 2 |] ~b:[| 2; 3 |]))
      ]
  in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |] in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) () in
  let raw = Benchmark.all cfg instances tests in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  Hashtbl.fold (fun name v acc -> (name, v) :: acc) results []
  |> List.sort (fun (a, _) (b, _) -> compare a b)
  |> List.iter (fun (name, v) ->
         match Analyze.OLS.estimates v with
         | Some [ est ] -> row "%-24s %14.0f ns/run\n" name est
         | _ -> row "%-24s %14s\n" name "n/a")

(* --- durable store: journal throughput, replay scaling, recovery --- *)

let recovery () =
  header "Recovery: journal append throughput, replay scaling, restart p99";
  let module Store = Ppj_store.Store in
  let module Journal = Ppj_store.Journal in
  let module Net = Ppj_net in
  let module Ch = Ppj_scpu.Channel in
  let mac_key = "bench-recovery-mac" in
  let rec rm_rf path =
    match Unix.lstat path with
    | { Unix.st_kind = Unix.S_DIR; _ } ->
        Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
        (try Unix.rmdir path with Unix.Unix_error _ -> ())
    | _ -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
    | exception Unix.Unix_error _ -> ()
  in
  let tmp_dir tag =
    let d =
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "ppj-bench-%s-%d" tag (Unix.getpid ()))
    in
    rm_rf d;
    d
  in
  (* Journal append throughput: fsync-per-record, the server's write
     discipline for acknowledged state. *)
  let dir = tmp_dir "append" in
  Unix.mkdir dir 0o700;
  let path = Filename.concat dir "journal.bin" in
  let record = String.make 1024 'r' in
  let appends = 2_000 in
  let w = Result.get_ok (Journal.open_append path) in
  let t0 = Unix.gettimeofday () in
  for _ = 1 to appends do
    match Journal.append w record with
    | Ok () -> ()
    | Error _ -> failwith "bench journal append failed"
  done;
  let append_s = Unix.gettimeofday () -. t0 in
  let mb = float_of_int (Journal.size w) /. 1048576. in
  Journal.close w;
  rm_rf dir;
  Obs.Registry.set_gauge registry "store.bench.append.records" (float_of_int appends);
  Obs.Registry.set_gauge registry "store.bench.append.mb_per_s" (mb /. append_s);
  row "journal append            : %d x 1KiB records, fsync each — %.1f MB/s (%.0f appends/s)\n"
    appends (mb /. append_s)
    (float_of_int appends /. append_s);
  (* Replay time vs journal length: boot-time cost of the un-compacted
     tail. *)
  List.iter
    (fun records ->
      let dir = tmp_dir (Printf.sprintf "replay-%d" records) in
      (* A huge compaction threshold so the journal tail, not the
         snapshot, is what replays. *)
      (match Store.open_dir ~compact_bytes:(1 lsl 30) ~mac_key dir with
      | Error _ -> failwith "bench store open failed"
      | Ok (s, _) ->
          for i = 0 to records - 1 do
            match Store.put_contract s ~digest:(Printf.sprintf "d%06d" i) record with
            | Ok () -> ()
            | Error _ -> failwith "bench store append failed"
          done;
          Store.close s);
      let labels = [ ("records", string_of_int records) ] in
      let replayed =
        Obs.Registry.span ~labels registry "store.bench.replay.seconds" (fun () ->
            match Store.open_dir ~compact_bytes:(1 lsl 30) ~mac_key dir with
            | Error _ -> failwith "bench store replay failed"
            | Ok (s, h) ->
                Store.close s;
                h.Store.journal_records)
      in
      if replayed <> records then failwith "bench replay lost records";
      (match Obs.Snapshot.find ~labels (Obs.Registry.snapshot registry) "store.bench.replay.seconds" with
      | Some { Obs.Snapshot.value = Obs.Snapshot.Summary { Obs.Histogram.mean; _ }; _ } ->
          row "replay %6d records      : %.4f s\n" records mean
      | _ -> ());
      rm_rf dir)
    [ 100; 1_000; 5_000 ];
  (* End-to-end restart recovery: a server generation dies mid-join
     (injected coprocessor crash, checkpoint already durable); measure
     reopen + fresh Server + client retry to a verified delivery. *)
  let runs = 12 in
  let schema = W.keyed_schema () in
  let contract =
    { Ch.contract_id = "bench-recovery";
      providers = [ "alice"; "bob" ];
      recipient = "carol";
      predicate = "eq(key,key)";
    }
  in
  let config = { Service.m = 4; seed = 9; algorithm = Service.Alg5 } in
  let no_sleep = { Net.Client.default_config with recv_timeout = 0.05; sleep = ignore } in
  let correct = ref 0 and wrong = ref 0 in
  for seed = 1 to runs do
    let dir = tmp_dir (Printf.sprintf "recover-%d" seed) in
    let rng = Rng.create seed in
    let a, b = W.equijoin_pair rng ~na:12 ~nb:18 ~matches:14 ~max_multiplicity:3 in
    let oracle =
      match Net.Chaos.oracle config ~contract [ (schema, a); (schema, b) ] with
      | Ok o -> o
      | Error e -> failwith e
    in
    let store1 =
      match Store.open_dir ~mac_key dir with
      | Ok (s, _) -> s
      | Error _ -> failwith "bench recovery open failed"
    in
    let faults =
      match Ppj_fault.Plan.of_string "crash@t=150" with
      | Ok plan -> Ppj_fault.Injector.create plan
      | Error e -> failwith e
    in
    let reactor1 =
      Net.Reactor.create
        (Net.Server.create ~mac_key ~seed:5 ~faults ~checkpoint_every:32 ~store:store1 ())
    in
    let submit id rel =
      let c = Net.Client.create ~config:no_sleep (Net.Transport.loopback reactor1) in
      (match
         Net.Client.submit_relation c
           ~rng:(Rng.create (Hashtbl.hash id))
           ~id ~mac_key ~contract ~schema rel
       with
      | Ok () -> ()
      | Error e -> failwith e);
      Net.Client.close c
    in
    submit "alice" a;
    submit "bob" b;
    let c1 =
      Net.Client.create
        ~config:{ no_sleep with max_retries = 0 }
        (Net.Transport.loopback reactor1)
    in
    (match
       Net.Client.fetch_result c1 ~rng:(Rng.create 99) ~id:"carol" ~mac_key ~contract config
     with
    | Ok _ -> failwith "bench recovery: join survived the injected crash"
    | Error _ -> ());
    Net.Client.close c1;
    Store.close store1;
    let delivered =
      Obs.Registry.span registry "store.bench.recovery.seconds" (fun () ->
          let store2 =
            match Store.open_dir ~mac_key dir with
            | Ok (s, _) -> s
            | Error _ -> failwith "bench recovery reopen failed"
          in
          let reactor2 = Net.Reactor.create (Net.Server.create ~mac_key ~seed:6 ~store:store2 ()) in
          let c2 = Net.Client.create ~config:no_sleep (Net.Transport.loopback reactor2) in
          let out =
            Net.Client.fetch_result c2 ~rng:(Rng.create 100) ~id:"carol" ~mac_key ~contract
              config
          in
          Net.Client.close c2;
          Store.close store2;
          out)
    in
    (match Net.Chaos.judge ~expected:oracle (Result.map snd delivered) with
    | Net.Chaos.Correct -> incr correct
    | Net.Chaos.Wrong _ -> incr wrong
    | v -> failwith (Net.Chaos.outcome_to_string v));
    rm_rf dir
  done;
  Obs.Registry.set_gauge registry "store.bench.recovery.correct" (float_of_int !correct);
  Obs.Registry.set_gauge registry "store.bench.recovery.wrong" (float_of_int !wrong);
  (match Obs.Snapshot.find (Obs.Registry.snapshot registry) "store.bench.recovery.seconds" with
  | Some { Obs.Snapshot.value = Obs.Snapshot.Summary { Obs.Histogram.p50; p99; _ }; _ } ->
      row "restart recovery          : %d runs, %d correct, %d wrong — p50 %.4f s, p99 %.4f s\n"
        runs !correct !wrong p50 p99
  | _ -> ());
  if !wrong > 0 then failwith "recovery bench produced a wrong answer"

(* --- Scaling: the Algorithm 8 crossover -------------------------------

   Sweep L = n^2 with na = nb = n and S = n/2, run Algorithms 4, 7 and 8
   on each size, regression-fit the measured transfer counts against the
   exact closed forms (least squares through the origin), and scan the
   fitted curves for the crossover size where Algorithm 8's
   n log-squared cost undercuts Algorithm 4's quadratic 2L.  Algorithm 7
   is fitted as a reference only: on PK-FK inputs it is strictly cheaper
   than Algorithm 8 (same sort, no expansion), and on many-to-many
   inputs it does not apply at all — the crossover that matters is
   sort-based-vs-quadratic.  Gauges land under bench.scaling.* and are
   CI-gated (scaling-smoke); PPJ_SCALING_MAX_N trims the sweep. *)

let scaling () =
  header "Scaling: measured crossover of Algorithm 8 vs Algorithm 4";
  let max_n = env_int "PPJ_SCALING_MAX_N" 32 in
  let sizes = List.filter (fun n -> n <= max_n) [ 4; 6; 8; 12; 16; 24; 32 ] in
  if sizes = [] then failwith "PPJ_SCALING_MAX_N below the smallest sweep size (4)";
  let s_of n = max 1 (n / 2) in
  let mk_inst n =
    let rng = Rng.create (3000 + n) in
    let a, b = W.equijoin_pair rng ~na:n ~nb:n ~matches:(s_of n) ~max_multiplicity:2 in
    Instance.create ~m:4 ~seed:31 ~predicate:(P.equijoin2 "key" "key") [ a; b ]
  in
  (* Exact closed forms (Cost.alg4's filter term is the paper's
     approximation, so assemble Algorithm 4's from filter_exact). *)
  let formula_of tag n =
    let s = s_of n in
    match tag with
    | "alg4" -> float_of_int ((2 * n * n) + Cost.filter_exact ~omega:(n * n) ~mu:s)
    | "alg7" -> Cost.alg7 ~a:n ~b:n ~s
    | "alg8" -> Cost.alg8 ~a:n ~b:n ~s
    | _ -> assert false
  in
  let run_of tag inst =
    match tag with
    | "alg4" -> Algorithm4.run inst ()
    | "alg7" -> fst (Algorithm7.run inst ~attr_a:"key" ~attr_b:"key")
    | "alg8" -> fst (Algorithm8.run inst ~attr_a:"key" ~attr_b:"key")
    | _ -> assert false
  in
  let algs = [ "alg4"; "alg7"; "alg8" ] in
  let pad_counter = Obs.Registry.counter registry "oblivious.sort.pad_slots_total" in
  row "%-6s %-6s %12s %14s %8s %10s\n" "n" "alg" "measured" "formula" "ratio" "pad_slots";
  let points =
    List.concat_map
      (fun n ->
        List.map
          (fun tag ->
            let pad_before = Obs.Counter.value pad_counter in
            let r = run_of tag (mk_inst n) in
            let pad = Obs.Counter.value pad_counter - pad_before in
            let measured = float_of_int r.Report.transfers in
            let formula = formula_of tag n in
            let labels = [ ("alg", tag); ("n", string_of_int n) ] in
            Obs.Registry.set_gauge ~labels registry "bench.scaling.transfers" measured;
            Obs.Registry.set_gauge ~labels registry "bench.scaling.formula" formula;
            Obs.Registry.set_gauge ~labels registry "bench.scaling.ratio" (measured /. formula);
            Obs.Registry.set_gauge ~labels registry "bench.scaling.pad_slots"
              (float_of_int pad);
            row "%-6d %-6s %12.0f %14.0f %8.3f %10d\n" n tag measured formula
              (measured /. formula) pad;
            (tag, n, measured, formula))
          algs)
      sizes
  in
  (* Least-squares scale factor per algorithm: measured ~ c * formula.
     A single point would hide a wrong exponent; the fit over the whole
     sweep (plus its worst relative residual) pins the shape. *)
  let lo_band, hi_band = exact_band in
  let fits =
    List.map
      (fun tag ->
        let mine = List.filter (fun (t, _, _, _) -> t = tag) points in
        let sxy = List.fold_left (fun a (_, _, m, f) -> a +. (m *. f)) 0. mine in
        let sxx = List.fold_left (fun a (_, _, _, f) -> a +. (f *. f)) 0. mine in
        let c = sxy /. sxx in
        let residual =
          List.fold_left
            (fun worst (_, _, m, f) -> Float.max worst (Float.abs ((m -. (c *. f)) /. m)))
            0. mine
        in
        let labels = [ ("alg", tag) ] in
        Obs.Registry.set_gauge ~labels registry "bench.scaling.fit" c;
        Obs.Registry.set_gauge ~labels registry "bench.scaling.fit_residual" residual;
        row "fit %-6s: measured = %.4f x formula (worst residual %.2g%%)\n" tag c
          (100. *. residual);
        (tag, c, residual))
      algs
  in
  (* Crossover of the fitted curves, scanned well past the sweep.  The
     power-of-two padding makes both curves jittery, so report the
     *stable* crossover: the smallest n from which Algorithm 8 stays
     cheaper all the way to the scan horizon. *)
  let fit_of tag = match List.find (fun (t, _, _) -> t = tag) fits with _, c, _ -> c in
  let c4 = fit_of "alg4" and c8 = fit_of "alg8" in
  let horizon = 4096 in
  let wins n = c8 *. formula_of "alg8" n < c4 *. formula_of "alg4" n in
  let crossover =
    let rec scan n unbroken best =
      if n < 4 then best
      else
        let unbroken = unbroken && wins n in
        scan (n - 1) unbroken (if unbroken then Some n else best)
    in
    scan horizon true None
  in
  (match crossover with
  | Some n ->
      Obs.Registry.set_gauge registry "bench.scaling.crossover_n" (float_of_int n);
      Obs.Registry.set_gauge registry "bench.scaling.crossover_l" (float_of_int (n * n));
      row "crossover: Algorithm 8 beats Algorithm 4 from n = %d (L = %d) on\n" n (n * n)
  | None ->
      Obs.Registry.set_gauge registry "bench.scaling.crossover_n" 0.;
      Obs.Registry.set_gauge registry "bench.scaling.crossover_l" 0.;
      row "no crossover up to n = 4096\n");
  let ok =
    crossover <> None
    && List.for_all
         (fun (_, c, residual) -> c >= lo_band && c <= hi_band && residual <= 0.1)
         fits
  in
  Obs.Registry.set_gauge registry "bench.scaling.within_tolerance" (if ok then 1. else 0.);
  row "(Algorithm 7 is the PK-FK reference: cheaper than Algorithm 8 where it\n";
  row " applies, inapplicable on many-to-many keys; the gated crossover is\n";
  row " Algorithm 8 vs Algorithm 4.)\n";
  csv "scaling" "n,alg,measured,formula"
    (List.map
       (fun (tag, n, m, f) ->
         [ string_of_int n; tag; Printf.sprintf "%.0f" m; Printf.sprintf "%.0f" f ])
       points);
  if not ok then failwith "scaling bench outside tolerance"

let experiments =
  [ ("tab5.1", tab51);
    ("tab5.2", tab52);
    ("tab5.3", tab53);
    ("fig4.1", fig41);
    ("sec4.6.5", sec465);
    ("fig5.1", fig51);
    ("fig5.2", fig52);
    ("fig5.3", fig53);
    ("fig5.4", fig54);
    ("measured", measured);
    ("scaling", scaling);
    ("parallel", parallel);
    ("shard", shard);
    ("aggregate", aggregate);
    ("ablation", ablation);
    ("oram", oram);
    ("equijoin", equijoin_ext);
    ("netjoin", netjoin);
    ("chaos", chaos);
    ("recovery", recovery);
    ("loadtest", loadtest);
    ("crypto", crypto_bench);
    ("bechamel", bechamel)
  ]

(* [--json PATH] may appear anywhere in the argument list; the remaining
   arguments select experiments as before.  PATH may be a directory, in
   which case a timestamped BENCH_*.json is created inside it.
   [--deterministic] pins the document's [generated_at_unix] to
   $PPJ_BENCH_EPOCH (default 0) so committed baselines and CI-gated
   artifacts diff cleanly across runs. *)
let parse_args argv =
  let rec go json det acc = function
    | "--json" :: path :: rest -> go (Some path) det acc rest
    | "--json" :: [] ->
        prerr_endline "--json requires a path";
        exit 1
    | "--deterministic" :: rest -> go json true acc rest
    | x :: rest -> go json det (x :: acc) rest
    | [] -> (json, det, List.rev acc)
  in
  match Array.to_list argv with
  | _ :: args -> go None false [] args
  | [] -> (None, false, [])

let epoch ~deterministic =
  if not deterministic then Unix.time ()
  else
    match Sys.getenv_opt "PPJ_BENCH_EPOCH" with
    | None -> 0.
    | Some s -> (
        match float_of_string_opt s with
        | Some f -> f
        | None ->
            Printf.eprintf "PPJ_BENCH_EPOCH must be a unix time, got %S\n" s;
            exit 1)

let json_file_of path =
  if Sys.file_exists path && Sys.is_directory path then begin
    let tm = Unix.localtime (Unix.time ()) in
    Filename.concat path
      (Printf.sprintf "BENCH_%04d%02d%02d_%02d%02d%02d.json" (tm.Unix.tm_year + 1900)
         (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min tm.Unix.tm_sec)
  end
  else path

let write_json path ~deterministic ran =
  (* build.info only: the full stamp's uptime gauge would break
     [--deterministic] artifact diffing *)
  Obs.Buildinfo.stamp_build registry;
  let trace =
    if List.mem "chaos" ran then
      Result.get_ok
        (Obs.Recorder.merge
           (List.map Obs.Recorder.to_perfetto [ recorder; chaos_server_recorder ]))
    else Obs.Recorder.to_perfetto recorder
  in
  let doc =
    Obs.Json.Obj
      [ ("schema", Obs.Json.Str "ppj.bench/1");
        ("generated_at_unix", Obs.Json.Float (epoch ~deterministic));
        ("experiments", Obs.Json.List (List.map (fun n -> Obs.Json.Str n) ran));
        ("metrics", Obs.Snapshot.to_json (Obs.Registry.snapshot registry));
        (* Perfetto-loadable span tree of the networked experiments (empty
           when none of them ran). *)
        ("trace", trace)
      ]
  in
  let oc = open_out path in
  output_string oc (Obs.Json.to_string doc);
  output_char oc '\n';
  close_out oc;
  Printf.printf "(wrote %s)\n" path

let main () =
  let json, deterministic, names = parse_args Sys.argv in
  (* Resolve (and fail on) an unwritable destination before spending a
     minute running experiments. *)
  let json =
    Option.map
      (fun path ->
        let file = json_file_of path in
        (match open_out file with
        | oc -> close_out oc
        | exception Sys_error msg ->
            Printf.eprintf "--json: cannot write %s\n" msg;
            exit 1);
        file)
      json
  in
  let run_one name f =
    Obs.Registry.span ~labels:[ ("experiment", name) ] registry "bench.experiment.seconds" f
  in
  let ran =
    match names with
    | [] ->
        List.iter (fun (name, f) -> run_one name f) experiments;
        List.map fst experiments
    | names ->
        List.iter
          (fun name ->
            match List.assoc_opt name experiments with
            | Some f -> run_one name f
            | None ->
                Printf.eprintf "unknown experiment %s; known: %s\n" name
                  (String.concat " " (List.map fst experiments));
                exit 1)
          names;
        names
  in
  Option.iter (fun file -> write_json file ~deterministic ran) json

let () =
  match Sys.argv with
  | [| _; "--loadtest-server"; path |] -> loadtest_server path
  | _ -> main ()
