exception Malformed of string

module W = struct
  let u8 b v = Buffer.add_uint8 b v
  let u16 b v = Buffer.add_uint16_be b v
  let u32 b v = Buffer.add_int32_be b (Int32.of_int v)
  let vint b v = Buffer.add_int64_be b (Int64.of_int v)
  let f64 b v = Buffer.add_int64_be b (Int64.bits_of_float v)

  let str b s =
    u32 b (String.length s);
    Buffer.add_string b s

  let list b f items =
    u16 b (List.length items);
    List.iter (f b) items
end

module R = struct
  type t = { src : string; mutable pos : int }

  let fail fmt = Printf.ksprintf (fun m -> raise (Malformed m)) fmt

  let need r n = if r.pos + n > String.length r.src then fail "truncated payload"

  let u8 r =
    need r 1;
    let v = Char.code r.src.[r.pos] in
    r.pos <- r.pos + 1;
    v

  let u16 r =
    need r 2;
    let v = String.get_uint16_be r.src r.pos in
    r.pos <- r.pos + 2;
    v

  let u32 r =
    need r 4;
    let v = Int32.to_int (String.get_int32_be r.src r.pos) in
    r.pos <- r.pos + 4;
    if v < 0 then fail "negative length" else v

  let i64 r =
    need r 8;
    let v = String.get_int64_be r.src r.pos in
    r.pos <- r.pos + 8;
    v

  let vint r = Int64.to_int (i64 r)
  let f64 r = Int64.float_of_bits (i64 r)

  let take r n =
    need r n;
    let s = String.sub r.src r.pos n in
    r.pos <- r.pos + n;
    s

  let str r = take r (u32 r)
  let list r f = List.init (u16 r) (fun _ -> f r)
  let at_end r = r.pos = String.length r.src
end

let encode f =
  let b = Buffer.create 64 in
  f b;
  Buffer.contents b

let decode s f =
  match
    let r = { R.src = s; pos = 0 } in
    let v = f r in
    if not (R.at_end r) then R.fail "trailing bytes in payload";
    v
  with
  | v -> Ok v
  | exception Malformed m -> Error m
  | exception Invalid_argument m -> Error m
