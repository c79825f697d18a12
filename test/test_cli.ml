(* Drive the built ppj_cli binary as a subprocess: exit codes must be
   meaningful (0 on success, non-zero on bad input or verification
   failure), --version must print, and the help of every networked
   subcommand must render. *)

let exe = "../bin/ppj_cli.exe"

let run args = Sys.command (Filename.quote_command exe args ^ " > /dev/null 2>&1")

let check_exit name expected args =
  Alcotest.(check int) name expected (run args)

let test_version () = check_exit "--version exits 0" 0 [ "--version" ]

let test_help_renders () =
  List.iter
    (fun sub -> check_exit (sub ^ " --help") 0 [ sub; "--help" ])
    [ "run"; "serve"; "submit"; "fetch"; "gen"; "csv-join"; "chaos" ]

let test_run_ok () =
  check_exit "run alg4" 0
    [ "run"; "--algorithm"; "alg4"; "--na"; "8"; "--nb"; "8"; "--matches"; "6" ]

let test_run_with_metrics () =
  check_exit "run --metrics" 0
    [ "run"; "--algorithm"; "alg5"; "--na"; "8"; "--nb"; "8"; "--matches"; "6"; "--metrics" ]

let test_run_fault_plan_crash_resumes () =
  (* An injected crash with checkpointing must still exit 0 (the join
     resumes and matches the oracle, or the run would exit 1). *)
  check_exit "run --fault-plan crash" 0
    [ "run"; "--algorithm"; "alg5"; "--na"; "8"; "--nb"; "8"; "--matches"; "6";
      "--fault-plan"; "crash@t=80;checkpoint@every=16"; "--metrics" ]

let test_run_fault_plan_corrupt_detected () =
  (* Injected ciphertext corruption must abort with a nonzero exit, never
     print a wrong answer. *)
  Alcotest.(check bool) "tamper aborts nonzero" true
    (run
       [ "run"; "--algorithm"; "alg5"; "--na"; "8"; "--nb"; "8"; "--matches"; "6";
         "--fault-plan"; "corrupt@t=40" ]
    <> 0)

let test_run_bad_fault_plan_fails () =
  Alcotest.(check bool) "garbage plan is non-zero" true
    (run [ "run"; "--fault-plan"; "explode@t=3" ] <> 0)

let test_chaos_ok () =
  check_exit "chaos --runs 6" 0 [ "chaos"; "--runs"; "6" ]

let test_privacy_ok () =
  check_exit "privacy alg4" 0
    [ "privacy"; "--algorithm"; "alg4"; "--na"; "6"; "--nb"; "6"; "--matches"; "4" ]

let test_bogus_algorithm_fails () =
  Alcotest.(check bool) "unknown algorithm is non-zero" true (run [ "run"; "--algorithm"; "alg9" ] <> 0)

let test_bogus_subcommand_fails () =
  Alcotest.(check bool) "unknown subcommand is non-zero" true (run [ "frobnicate" ] <> 0)

let test_submit_without_server_fails () =
  (* No listener on the socket: the client must fail with a non-zero
     exit rather than hang (one quick connect attempt, no server). *)
  let csv = Filename.temp_file "ppj-cli" ".csv" in
  let oc = open_out csv in
  output_string oc "key,val\n1,2\n";
  close_out oc;
  let sock = Filename.temp_file "ppj-cli" ".sock" in
  Sys.remove sock;
  let code = run [ "submit"; csv; "--socket"; sock; "--id"; "alice"; "--wait"; "0" ] in
  Sys.remove csv;
  Alcotest.(check bool) "submit with no server is non-zero" true (code <> 0)

let test_fetch_missing_socket_arg_fails () =
  Alcotest.(check bool) "fetch without --socket is non-zero" true
    (run [ "fetch"; "--id"; "carol" ] <> 0)

let sorted_lines path =
  let ic = open_in path in
  let rec go acc = match input_line ic with l -> go (l :: acc) | exception End_of_file -> acc in
  let lines = go [] in
  close_in ic;
  List.sort compare lines

let test_fetch_twice () =
  (* One recipient fetches twice from one running server.  Each fetch is
     a fresh handshake; were its seed a function of the party id, the
     second would repeat the first's hello and be refused as a replay. *)
  let dir = Filename.temp_file "ppj-cli" ".d" in
  Sys.remove dir;
  Sys.mkdir dir 0o700;
  let path f = Filename.concat dir f in
  let sock = path "ppj.sock" in
  check_exit "gen" 0
    [ "gen"; path "a.csv"; path "b.csv"; "--na"; "10"; "--nb"; "14"; "--matches"; "6";
      "--seed"; "3" ];
  check_exit "csv-join" 0
    [ "csv-join"; path "a.csv"; path "b.csv"; "--attr-a"; "key"; "--attr-b"; "key"; "-o";
      path "want.csv" ];
  let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let server =
    Unix.create_process exe
      [| exe; "serve"; "--socket"; sock; "--max-sessions"; "4" |]
      Unix.stdin null null
  in
  let stop () =
    (try Unix.kill server Sys.sigterm with Unix.Unix_error _ -> ());
    ignore (Unix.waitpid [] server);
    Unix.close null;
    Array.iter (fun f -> Sys.remove (path f)) (Sys.readdir dir);
    Sys.rmdir dir
  in
  Fun.protect ~finally:stop (fun () ->
      check_exit "submit alice" 0 [ "submit"; path "a.csv"; "--socket"; sock; "--id"; "alice" ];
      check_exit "submit bob" 0 [ "submit"; path "b.csv"; "--socket"; sock; "--id"; "bob" ];
      List.iter
        (fun n ->
          let got = path (Printf.sprintf "got%d.csv" n) in
          check_exit (Printf.sprintf "fetch %d" n) 0
            [ "fetch"; "--socket"; sock; "--id"; "carol"; "-a"; "alg5"; "-m"; "4"; "-o"; got ];
          Alcotest.(check (list string))
            (Printf.sprintf "fetch %d = csv-join" n)
            (sorted_lines (path "want.csv"))
            (sorted_lines got))
        [ 1; 2 ])

let () =
  if not (Sys.file_exists exe) then (
    print_endline "ppj_cli.exe not built; skipping CLI tests";
    exit 0);
  Alcotest.run "cli"
    [ ( "exit-codes",
        [ Alcotest.test_case "--version" `Quick test_version;
          Alcotest.test_case "--help across subcommands" `Quick test_help_renders;
          Alcotest.test_case "run succeeds" `Quick test_run_ok;
          Alcotest.test_case "run --metrics succeeds" `Quick test_run_with_metrics;
          Alcotest.test_case "run --fault-plan crash resumes" `Quick
            test_run_fault_plan_crash_resumes;
          Alcotest.test_case "run --fault-plan corrupt aborts" `Quick
            test_run_fault_plan_corrupt_detected;
          Alcotest.test_case "bad fault plan fails" `Quick test_run_bad_fault_plan_fails;
          Alcotest.test_case "chaos succeeds" `Quick test_chaos_ok;
          Alcotest.test_case "privacy succeeds" `Quick test_privacy_ok;
          Alcotest.test_case "bogus algorithm fails" `Quick test_bogus_algorithm_fails;
          Alcotest.test_case "bogus subcommand fails" `Quick test_bogus_subcommand_fails;
          Alcotest.test_case "submit with no server fails" `Quick test_submit_without_server_fails;
          Alcotest.test_case "fetch without socket fails" `Quick test_fetch_missing_socket_arg_fails;
        ] );
      ("served", [ Alcotest.test_case "one recipient fetches twice" `Quick test_fetch_twice ]);
    ]
