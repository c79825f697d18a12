(* Maximal-length tap positions (1-based, Fibonacci form) per degree, from
   the standard tables of primitive polynomials over GF(2). *)
let taps = function
  | 2 -> [ 2; 1 ]
  | 3 -> [ 3; 2 ]
  | 4 -> [ 4; 3 ]
  | 5 -> [ 5; 3 ]
  | 6 -> [ 6; 5 ]
  | 7 -> [ 7; 6 ]
  | 8 -> [ 8; 6; 5; 4 ]
  | 9 -> [ 9; 5 ]
  | 10 -> [ 10; 7 ]
  | 11 -> [ 11; 9 ]
  | 12 -> [ 12; 6; 4; 1 ]
  | 13 -> [ 13; 4; 3; 1 ]
  | 14 -> [ 14; 5; 3; 1 ]
  | 15 -> [ 15; 14 ]
  | 16 -> [ 16; 15; 13; 4 ]
  | 17 -> [ 17; 14 ]
  | 18 -> [ 18; 11 ]
  | 19 -> [ 19; 6; 2; 1 ]
  | 20 -> [ 20; 17 ]
  | 21 -> [ 21; 19 ]
  | 22 -> [ 22; 21 ]
  | 23 -> [ 23; 18 ]
  | 24 -> [ 24; 23; 22; 17 ]
  | 25 -> [ 25; 22 ]
  | 26 -> [ 26; 6; 2; 1 ]
  | 27 -> [ 27; 5; 2; 1 ]
  | 28 -> [ 28; 25 ]
  | 29 -> [ 29; 27 ]
  | 30 -> [ 30; 6; 4; 1 ]
  | 31 -> [ 31; 28 ]
  | 32 -> [ 32; 22; 2; 1 ]
  | d -> invalid_arg (Printf.sprintf "Mlfsr: unsupported degree %d" d)

type t = { degree : int; mask : int; mutable state : int }

let tap_mask degree = List.fold_left (fun m t -> m lor (1 lsl (t - 1))) 0 (taps degree)

let create ~degree ~seed =
  let mask = tap_mask degree in
  let full = (1 lsl degree) - 1 in
  let state = ((seed land max_int) mod full) + 1 in
  { degree; mask; state }

let degree_for n =
  if n < 1 then invalid_arg "Mlfsr.degree_for";
  let rec go l = if (1 lsl l) - 1 >= n then l else go (l + 1) in
  go 2

let parity x =
  let rec go x acc = if x = 0 then acc else go (x lsr 1) (acc lxor (x land 1)) in
  go x 0

let next t =
  let fb = parity (t.state land t.mask) in
  t.state <- ((t.state lsl 1) lor fb) land ((1 lsl t.degree) - 1);
  if t.state = 0 then t.state <- 1;
  t.state

let period t = (1 lsl t.degree) - 1

let random_order ~n ~seed =
  if n = 0 then Seq.empty
  else if n = 1 then Seq.return 0
  else begin
    let degree = degree_for n in
    let t = create ~degree ~seed in
    let produced = ref 0 in
    let steps = ref 0 in
    let p = period t in
    let rec pull () =
      if !produced >= n || !steps >= p then Seq.Nil
      else begin
        incr steps;
        let v = next t in
        if v <= n then begin
          incr produced;
          Seq.Cons (v - 1, pull)
        end
        else pull ()
      end
    in
    pull
  end
