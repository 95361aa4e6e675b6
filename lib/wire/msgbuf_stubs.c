/* Bulk copies between a flat float array and a byte buffer, for
   Msgbuf's double[] slices.

   The wire format stores a double as the little-endian bytes of its
   IEEE-754 bit pattern.  On a little-endian host whose float arrays are
   flat (Double_array_tag, unboxed 8-byte elements), a slice of the
   array already is those bytes, so a slice crosses in one memcpy
   instead of a bits_of_float/float_of_bits call pair per element.
   Msgbuf calls these only under that guard, after its own bounds
   checks; the stubs check nothing themselves.

   Both are declared [@@noalloc]: they neither allocate nor raise, and
   a float array holds no pointers, so filling one needs no write
   barrier. */

#include <string.h>

#include <caml/mlvalues.h>

/* rmi_msgbuf_blit_doubles_to_bytes : float array -> int -> bytes -> int
   -> int -> unit.  Copies [len] doubles of [src] from index [pos] to
   [dst] at byte offset [at]. */
CAMLprim value rmi_msgbuf_blit_doubles_to_bytes(value v_src, value v_pos,
                                                value v_dst, value v_at,
                                                value v_len)
{
    memcpy((char *) Bytes_val(v_dst) + Long_val(v_at),
           (const double *) v_src + Long_val(v_pos),
           (size_t) Long_val(v_len) * sizeof(double));
    return Val_unit;
}

/* rmi_msgbuf_blit_bytes_to_doubles : bytes -> int -> float array -> int
   -> int -> unit.  Copies [len] doubles from [src] at byte offset [at]
   into [dst] from index [pos]. */
CAMLprim value rmi_msgbuf_blit_bytes_to_doubles(value v_src, value v_at,
                                                value v_dst, value v_pos,
                                                value v_len)
{
    memcpy((double *) v_dst + Long_val(v_pos),
           (const char *) Bytes_val(v_src) + Long_val(v_at),
           (size_t) Long_val(v_len) * sizeof(double));
    return Val_unit;
}
