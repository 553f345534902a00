#ifndef FIELDREP_COMMON_BYTES_H_
#define FIELDREP_COMMON_BYTES_H_

#include <cstdint>
#include <cstring>
#include <string>

namespace fieldrep {

/// \file
/// Little-endian fixed-width codecs used by every on-page structure in the
/// library (object headers, slotted-page directories, B+ tree nodes, link
/// objects). All functions assume the caller has validated bounds.

inline void EncodeU16(uint8_t* dst, uint16_t v) { std::memcpy(dst, &v, 2); }
inline void EncodeU32(uint8_t* dst, uint32_t v) { std::memcpy(dst, &v, 4); }
inline void EncodeU64(uint8_t* dst, uint64_t v) { std::memcpy(dst, &v, 8); }
inline void EncodeI32(uint8_t* dst, int32_t v) { std::memcpy(dst, &v, 4); }
inline void EncodeI64(uint8_t* dst, int64_t v) { std::memcpy(dst, &v, 8); }
inline void EncodeF64(uint8_t* dst, double v) { std::memcpy(dst, &v, 8); }

inline uint16_t DecodeU16(const uint8_t* src) {
  uint16_t v;
  std::memcpy(&v, src, 2);
  return v;
}
inline uint32_t DecodeU32(const uint8_t* src) {
  uint32_t v;
  std::memcpy(&v, src, 4);
  return v;
}
inline uint64_t DecodeU64(const uint8_t* src) {
  uint64_t v;
  std::memcpy(&v, src, 8);
  return v;
}
inline int32_t DecodeI32(const uint8_t* src) {
  int32_t v;
  std::memcpy(&v, src, 4);
  return v;
}
inline int64_t DecodeI64(const uint8_t* src) {
  int64_t v;
  std::memcpy(&v, src, 8);
  return v;
}
inline double DecodeF64(const uint8_t* src) {
  double v;
  std::memcpy(&v, src, 8);
  return v;
}

/// Appends the fixed-width encoding of `v` to `out`.
void PutU16(std::string* out, uint16_t v);
void PutU32(std::string* out, uint32_t v);
void PutU64(std::string* out, uint64_t v);
void PutI32(std::string* out, int32_t v);
void PutI64(std::string* out, int64_t v);
void PutF64(std::string* out, double v);
/// Appends a u32 length prefix followed by the bytes of `s`.
void PutLengthPrefixed(std::string* out, const std::string& s);

/// CRC-32 (the standard reflected 0xEDB88320 polynomial) of `size` bytes.
/// Used by the write-ahead log to frame records and by the storage layer
/// for per-page checksums.
uint32_t Crc32(const void* data, size_t size);

/// \brief Sequential reader over an encoded byte buffer.
///
/// Get* methods return false (and leave the output untouched) when the
/// buffer is exhausted, which callers surface as Status::Corruption.
class ByteReader {
 public:
  ByteReader(const uint8_t* data, size_t size) : data_(data), size_(size) {}
  explicit ByteReader(const std::string& s)
      : data_(reinterpret_cast<const uint8_t*>(s.data())), size_(s.size()) {}
  /// The reader borrows its bytes, so it must not outlive a temporary.
  explicit ByteReader(std::string&&) = delete;

  bool GetU16(uint16_t* v);
  bool GetU32(uint32_t* v);
  bool GetU64(uint64_t* v);
  bool GetI32(int32_t* v);
  bool GetI64(int64_t* v);
  bool GetF64(double* v);
  bool GetLengthPrefixed(std::string* s);
  /// Reads exactly `n` raw bytes into `s`.
  bool GetRaw(size_t n, std::string* s);
  /// Skips `n` bytes.
  bool Skip(size_t n);

  size_t remaining() const { return size_ - pos_; }
  size_t position() const { return pos_; }

 private:
  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

}  // namespace fieldrep

#endif  // FIELDREP_COMMON_BYTES_H_
