/**
 * @file
 * Two-plane word storage shared by bv::Value and bv::PackedValue.
 *
 * Both 4-state value types keep two planes of equally many 64-bit
 * words: a data plane and an unknown (X) plane.  When each plane is a
 * single word — every Value of up to 64 bits and every 1-bit
 * PackedValue — both words live inline in the object, which then owns
 * no heap memory.  Wider planes share one heap block of 2·n words: the
 * data plane followed by the X plane.  This is the small-vector idiom
 * iverilog's vvp_vector4_t uses for vectors of one word or less.
 *
 * The bit width is kept here too (it fills what would otherwise be
 * padding), so an owner is exactly 24 bytes.  A moved-from object is
 * the default: width 1, one zero word per plane.
 */
#ifndef RTLREPAIR_BV_PLANES_HPP
#define RTLREPAIR_BV_PLANES_HPP

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>

namespace rtlrepair::bv::detail {

class Planes
{
  public:
    Planes() noexcept : _width(1), _words(1), _s{} {}

    /** Zero-filled planes of @p words words each, tagged @p width. */
    Planes(uint32_t width, uint32_t words) : _width(width), _words(words)
    {
        if (onHeap())
            _s.heap = new uint64_t[2 * size_t(words)]();
        else
            _s.inl[0] = _s.inl[1] = 0;
    }

    Planes(const Planes &o) : Planes(o._width, o._words)
    {
        std::copy_n(o.data(), 2 * size_t(_words), data());
    }

    Planes(Planes &&o) noexcept
        : _width(o._width), _words(o._words), _s(o._s)
    {
        o.release();
    }

    Planes &
    operator=(const Planes &o)
    {
        if (this == &o)
            return *this;
        if (_words != o._words) {
            Planes tmp(o);
            swap(tmp);
            return *this;
        }
        // Same plane length: overwrite in place, no reallocation.
        _width = o._width;
        std::copy_n(o.data(), 2 * size_t(_words), data());
        return *this;
    }

    Planes &
    operator=(Planes &&o) noexcept
    {
        if (this != &o) {
            free();
            _width = o._width;
            _words = o._words;
            _s = o._s;
            o.release();
        }
        return *this;
    }

    ~Planes() { free(); }

    void
    swap(Planes &o) noexcept
    {
        std::swap(_width, o._width);
        std::swap(_words, o._words);
        std::swap(_s, o._s);
    }

    uint32_t width() const { return _width; }
    /** Words per plane. */
    uint32_t words() const { return _words; }

    /** Plane 0 (data) or plane 1 (X). */
    std::span<uint64_t>
    plane(int k)
    {
        return {data() + k * size_t(_words), _words};
    }
    std::span<const uint64_t>
    plane(int k) const
    {
        return {data() + k * size_t(_words), _words};
    }

    /** Both planes, word for word, equal (width not compared). */
    bool
    sameWords(const Planes &o) const
    {
        return _words == o._words &&
               std::equal(data(), data() + 2 * size_t(_words), o.data());
    }

  private:
    bool onHeap() const { return _words > 1; }
    uint64_t *data() { return onHeap() ? _s.heap : _s.inl; }
    const uint64_t *data() const { return onHeap() ? _s.heap : _s.inl; }

    void
    free() noexcept
    {
        if (onHeap())
            delete[] _s.heap;
    }

    /** Leave the moved-from default (storage already handed over). */
    void
    release() noexcept
    {
        _width = 1;
        _words = 1;
        _s.inl[0] = _s.inl[1] = 0;
    }

    union Storage
    {
        uint64_t inl[2];
        uint64_t *heap;
    };

    uint32_t _width;
    uint32_t _words;
    Storage _s;
};

} // namespace rtlrepair::bv::detail

#endif // RTLREPAIR_BV_PLANES_HPP
