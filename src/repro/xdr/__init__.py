"""XDR: External Data Representation (RFC 4506).

The ONC RPC and NFS wire formats are defined in XDR.  This package
implements the encoder/decoder the whole stack serializes with: 4-byte
alignment, big-endian integers, variable/fixed opaques, strings, arrays
and optional data.
"""

from repro.xdr.codec import Packer, Unpacker, XdrError, pack_fixed

__all__ = ["Packer", "Unpacker", "XdrError", "pack_fixed"]
