/* AES-128 block rounds on the CPU's AES instructions (AES-NI).
 *
 * The OCaml side (aes.ml) expands the key and passes the round keys as
 * 176 bytes, round r at offset 16 r: the encryption schedule for
 * encrypt, and for decrypt the equivalent-inverse schedule (round keys
 * in reverse order, InvMixColumns applied to rounds 1..9), which is the
 * form AESDEC expects.  The stubs do no bounds checking:
 * Aes.encrypt_into and Aes.decrypt_into check both 16-byte ranges
 * before calling them.  They allocate nothing and never raise, so the
 * externals are [@@noalloc].  The block is loaded whole before any
 * byte is stored, so source and destination may overlap.
 *
 * The intrinsics live only in functions compiled for the "aes" target;
 * the library itself is built without -maes, so one binary runs on any
 * x86-64, and ppj_aes_hw_available asks CPUID whether they may be
 * called.  On other architectures and compilers the file compiles to
 * stubs that report the instructions absent.
 */

#include <caml/mlvalues.h>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))

#include <wmmintrin.h>

#define ROUND_KEY(rk, r) _mm_loadu_si128((const __m128i *)((rk) + 16 * (r)))

__attribute__((target("aes"))) static void enc_block(const unsigned char *rk,
                                                     const unsigned char *src,
                                                     unsigned char *dst)
{
  __m128i s = _mm_xor_si128(_mm_loadu_si128((const __m128i *)src), ROUND_KEY(rk, 0));
  s = _mm_aesenc_si128(s, ROUND_KEY(rk, 1));
  s = _mm_aesenc_si128(s, ROUND_KEY(rk, 2));
  s = _mm_aesenc_si128(s, ROUND_KEY(rk, 3));
  s = _mm_aesenc_si128(s, ROUND_KEY(rk, 4));
  s = _mm_aesenc_si128(s, ROUND_KEY(rk, 5));
  s = _mm_aesenc_si128(s, ROUND_KEY(rk, 6));
  s = _mm_aesenc_si128(s, ROUND_KEY(rk, 7));
  s = _mm_aesenc_si128(s, ROUND_KEY(rk, 8));
  s = _mm_aesenc_si128(s, ROUND_KEY(rk, 9));
  s = _mm_aesenclast_si128(s, ROUND_KEY(rk, 10));
  _mm_storeu_si128((__m128i *)dst, s);
}

__attribute__((target("aes"))) static void dec_block(const unsigned char *rk,
                                                     const unsigned char *src,
                                                     unsigned char *dst)
{
  __m128i s = _mm_xor_si128(_mm_loadu_si128((const __m128i *)src), ROUND_KEY(rk, 0));
  s = _mm_aesdec_si128(s, ROUND_KEY(rk, 1));
  s = _mm_aesdec_si128(s, ROUND_KEY(rk, 2));
  s = _mm_aesdec_si128(s, ROUND_KEY(rk, 3));
  s = _mm_aesdec_si128(s, ROUND_KEY(rk, 4));
  s = _mm_aesdec_si128(s, ROUND_KEY(rk, 5));
  s = _mm_aesdec_si128(s, ROUND_KEY(rk, 6));
  s = _mm_aesdec_si128(s, ROUND_KEY(rk, 7));
  s = _mm_aesdec_si128(s, ROUND_KEY(rk, 8));
  s = _mm_aesdec_si128(s, ROUND_KEY(rk, 9));
  s = _mm_aesdeclast_si128(s, ROUND_KEY(rk, 10));
  _mm_storeu_si128((__m128i *)dst, s);
}

value ppj_aes_hw_available(value unit)
{
  (void)unit;
  __builtin_cpu_init();
  return Val_bool(__builtin_cpu_supports("aes"));
}

value ppj_aes_hw_encrypt(value rk, value src, value src_pos, value dst, value dst_pos)
{
  enc_block(Bytes_val(rk), Bytes_val(src) + Long_val(src_pos),
            Bytes_val(dst) + Long_val(dst_pos));
  return Val_unit;
}

value ppj_aes_hw_decrypt(value rk, value src, value src_pos, value dst, value dst_pos)
{
  dec_block(Bytes_val(rk), Bytes_val(src) + Long_val(src_pos),
            Bytes_val(dst) + Long_val(dst_pos));
  return Val_unit;
}

#else

/* No AES instructions here: aes.ml never calls the block stubs when
   ppj_aes_hw_available says false. */

value ppj_aes_hw_available(value unit)
{
  (void)unit;
  return Val_false;
}

value ppj_aes_hw_encrypt(value rk, value src, value src_pos, value dst, value dst_pos)
{
  (void)rk; (void)src; (void)src_pos; (void)dst; (void)dst_pos;
  return Val_unit;
}

value ppj_aes_hw_decrypt(value rk, value src, value src_pos, value dst, value dst_pos)
{
  (void)rk; (void)src; (void)src_pos; (void)dst; (void)dst_pos;
  return Val_unit;
}

#endif
