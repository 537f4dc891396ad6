"""FFT computing kernel (paper section III-B).

Public surface:

* :func:`fft` / :func:`ifft` / :func:`rfft` / :func:`irfft` — 1-D
  transforms with backend dispatch,
* :func:`fft2` / :func:`ifft2` — 2-D transforms,
* convolution / correlation helpers implementing the circular convolution
  theorem (paper Eqn. 3),
* algorithm kernels (:func:`fft_radix2`, :func:`fft_mixed_radix`,
  :func:`fft_bluestein`, :func:`naive_dft`) for benchmarking,
* backend selection (:func:`set_backend`, :func:`use_backend`).
"""

from .._lazy import attach

__getattr__, __dir__, __all__ = attach(
    __name__,
    {
        ".backend": [
            "available_backends", "get_backend", "set_backend", "use_backend",
        ],
        ".bluestein": ["fft_bluestein"],
        ".convolution": [
            "circular_convolve", "circular_convolve_direct",
            "circular_correlate", "circular_correlate_direct", "convolve2d",
            "convolve2d_direct", "linear_convolve", "linear_convolve_direct",
            "overlap_add_convolve",
        ],
        ".cooley_tukey": ["fft_mixed_radix", "fft_radix2", "ifft_radix2"],
        ".core": ["fft", "ifft", "irfft", "rfft"],
        ".dft": ["dft_matrix", "naive_dft", "naive_idft"],
        ".fft2d": ["fft2", "ifft2"],
        ".rader": ["fft_rader", "primitive_root"],
        ".twiddle": [
            "bit_reversal_permutation", "is_power_of_two", "next_power_of_two",
            "smallest_prime_factor", "twiddle_factors",
        ],
    },
)
