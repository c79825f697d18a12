(* Timing, order statistics, process memory, the host-speed probe and the
   result line.  Nothing here calls into the program under test. *)

let now = Unix.gettimeofday

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let ms s = 1000. *. s

(* Nearest-rank percentile, q in (0, 100]. *)
let percentile xs q =
  match List.sort compare xs with
  | [] -> nan
  | sorted ->
      let a = Array.of_list sorted in
      let n = Array.length a in
      let rank = int_of_float (Float.ceil (q /. 100. *. float_of_int n)) in
      a.(max 0 (min (n - 1) (rank - 1)))

let median xs = percentile xs 50.

let mean = function
  | [] -> nan
  | xs -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

(* Samples strictly above the nearest-rank percentile: the guide's "at
   least ten samples beyond it" test for a tail percentile. *)
let beyond xs q =
  let p = percentile xs q in
  List.length (List.filter (fun x -> x > p) xs)

(* Peak resident set (VmHWM) of a live process, in MB. *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" (if pid = 0 then "self" else string_of_int pid) in
  In_channel.with_open_text path (fun ic ->
      let rec scan () =
        match In_channel.input_line ic with
        | None -> failwith ("no VmHWM in " ^ path)
        | Some line when String.starts_with ~prefix:"VmHWM:" line ->
            Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
        | Some _ -> scan ()
      in
      scan ())

(* Host-speed probe: a fixed integer loop that touches no program code,
   timed at the start and end of every run, so host drift can be told
   apart from a code change. *)
let spin_ms () =
  let t0 = now () in
  let x = ref 0x2545F491 in
  for i = 1 to 30_000_000 do
    x := (!x * 0x5DEECE66D) + i
  done;
  ignore (Sys.opaque_identity !x);
  ms (now () -. t0)

(* --- the result line ------------------------------------------------- *)

type metric = { name : string; value : float; unit : string }

let metric name unit value = { name; value; unit }

(* A metric with no sample (a failed run that timed no correct op) is
   NaN and prints as null. *)
let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else "null"

let result_line ~correct ~attempted ~failed metrics =
  let m =
    List.map
      (fun { name; value; unit } ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number value) unit)
      metrics
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" correct
    attempted failed (String.concat ", " m)

(* Run [f] under a flight-recorder span when tracing. *)
let span recorder name f =
  match recorder with None -> f () | Some r -> Ppj_obs.Recorder.with_span r name f

(* Human-readable lines go before the result line. *)
let say fmt = Printf.printf (fmt ^^ "\n%!")

(* A per-run scratch directory inside the working directory. *)
let run_dir () =
  let root = ".perfbench_run" in
  (try Unix.mkdir root 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let d = Filename.concat root (string_of_int (Unix.getpid ())) in
  (try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  d

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
