type t = Aes.key

let create raw = Aes.expand raw

let of_seed seed =
  let b = Bytes.make 16 '\000' in
  Bytes.set_int64_be b 0 (Int64.of_int seed);
  Bytes.set_int64_be b 8 (Int64.lognot (Int64.of_int seed));
  create (Bytes.to_string b)

let block_at t i = Aes.encrypt t (Block.of_int i)

let int_at t i =
  let s = Block.to_string (block_at t i) in
  Int64.to_int (Int64.shift_right_logical (Bytes.get_int64_be (Bytes.of_string s) 0) 2)

(* E_k(encode i) straight into the caller's buffer: [encode i] is
   [Block.of_int i], eight zero bytes then [i] big-endian. *)
let nonce_into t i buf ~pos =
  Bytes.set_int64_be buf pos 0L;
  Bytes.set_int64_be buf (pos + 8) (Int64.of_int i);
  Aes.encrypt_into t ~src:buf ~src_pos:pos ~dst:buf ~dst_pos:pos

let nonce_at t i =
  let b = Bytes.create Block.size in
  nonce_into t i b ~pos:0;
  Bytes.unsafe_to_string b
