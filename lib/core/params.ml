let ceil_div a b = (a + b - 1) / b

let gamma ~n ~m ?(delta = 0) () =
  let free = m - delta in
  if free < 1 then invalid_arg "Params.gamma: no free memory";
  max 1 (ceil_div n free)

let blk ~n ~gamma = ceil_div n gamma

let alpha ~n ~b = float_of_int n /. float_of_int b

let algorithm2_partition ~n ~m ?(delta = 0) () =
  let f = m + 1 - delta in
  if f < 2 then invalid_arg "Params.algorithm2_partition: memory too small";
  if n > f then begin
    let g = gamma ~n ~m ~delta () in
    let b = blk ~n ~gamma:g in
    `Stream_b (m - delta - b, b)
  end
  else begin
    let q = f / (1 + n) in
    let q = max 1 q in
    `Block_a (q, f - (q * (1 + n)), q * n)
  end

let segments ~l ~n_star = ceil_div l n_star
let scans ~s ~m = ceil_div s m

let check_slice ~k ~p =
  if p < 1 then invalid_arg "slice: p must be positive";
  if k < 0 || k >= p then
    invalid_arg (Printf.sprintf "slice: shard index %d out of range for p=%d" k p)

let slice ~n ~k ~p =
  check_slice ~k ~p;
  (k * n / p, (k + 1) * n / p)
