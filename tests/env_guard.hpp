#pragma once

/// \file env_guard.hpp
/// Scoped environment-variable overrides for tests.

#include <cstdlib>
#include <string>

namespace rrs::test {

/// Sets an environment variable for a scope and restores the previous value
/// (or unsets it) on destruction.
class EnvGuard {
public:
    EnvGuard(const char* name, const std::string& value) : name_(name) {
        const char* prev = std::getenv(name_);
        had_prev_ = prev != nullptr;
        if (had_prev_) {
            prev_ = prev;
        }
        ::setenv(name_, value.c_str(), 1);
    }
    ~EnvGuard() {
        if (had_prev_) {
            ::setenv(name_, prev_.c_str(), 1);
        } else {
            ::unsetenv(name_);
        }
    }
    EnvGuard(const EnvGuard&) = delete;
    EnvGuard& operator=(const EnvGuard&) = delete;

private:
    const char* name_;
    bool had_prev_ = false;
    std::string prev_;
};

/// Pins RRS_THREADS for a scope (max_threads() re-reads the environment on
/// every call, so this changes the worker count of subsequent parallel_for
/// regions in-process).
class ThreadCountGuard : public EnvGuard {
public:
    explicit ThreadCountGuard(int threads)
        : EnvGuard("RRS_THREADS", std::to_string(threads)) {}
};

}  // namespace rrs::test
